// Package vfs is the filesystem boundary of the storage subsystem. Every
// file operation of the mutable tier (internal/lsm: WAL appends and fsyncs,
// segment and manifest commits, recovery reads) goes through the FS
// interface instead of calling os.* directly, so a test (or a smoke run) can
// substitute internal/faultfs and observe how the whole pipeline behaves
// when an fsync fails, a write runs out of disk, or a read returns EIO.
//
// It also owns the one way a whole file reaches disk, WriteAtomic: lsm's
// segments and manifest, and (over OS{}) persist.SaveFile, the shard-set
// manifest, shardsplit's sidecars and rollout's file shipping all call it,
// so "durable on return, old or new, never torn" is written and tested once.
//
// The production implementation is OS, a thin passthrough to the os
// package. It is deliberately minimal: just the operations the storage
// pipeline actually performs, each one an injectable fault site. The
// boundary is also where directory-fsync semantics live (SyncDir), so the
// "ignore only the errors that mean 'this filesystem cannot fsync a
// directory'" policy is written once and audited once.
package vfs

import (
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"syscall"
)

// File is an open file handle: the subset of *os.File the storage pipeline
// uses. Sync is the durability barrier — a File implementation must not
// report success unless the bytes are on stable storage (or it is
// deliberately lying for test speed, like lsm's NoFsync mode).
type File interface {
	io.Reader
	io.Writer
	io.Closer
	// Name returns the path the file was opened with.
	Name() string
	// Seek repositions the read/write offset.
	Seek(offset int64, whence int) (int64, error)
	// Sync flushes the file's data to stable storage.
	Sync() error
	// Truncate cuts the file to size bytes (the WAL's torn-tail repair).
	Truncate(size int64) error
}

// FS is the filesystem the storage pipeline runs on. Implementations must
// be safe for concurrent use (background compaction performs I/O while the
// write path does).
type FS interface {
	// Open opens a file read-only.
	Open(name string) (File, error)
	// OpenFile is the generalized open (the WAL re-opens segments O_RDWR).
	OpenFile(name string, flag int, perm fs.FileMode) (File, error)
	// CreateTemp creates a fresh temp file in dir, as os.CreateTemp.
	CreateTemp(dir, pattern string) (File, error)
	// ReadFile reads a whole file, as os.ReadFile.
	ReadFile(name string) ([]byte, error)
	// Rename atomically replaces newpath with oldpath, as os.Rename.
	Rename(oldpath, newpath string) error
	// Remove deletes a file.
	Remove(name string) error
	// Chmod sets a file's permission bits.
	Chmod(name string, mode fs.FileMode) error
	// MkdirAll creates a directory tree, as os.MkdirAll.
	MkdirAll(path string, perm fs.FileMode) error
	// ReadDir lists a directory, as os.ReadDir.
	ReadDir(name string) ([]fs.DirEntry, error)
	// SyncDir fsyncs a directory so renames within it are durable. Only
	// the errors that mean "this filesystem rejects directory fsync"
	// (EINVAL, ENOTSUP) are swallowed; a real I/O failure is returned.
	SyncDir(dir string) error
}

// OS is the production FS: a passthrough to the os package. The zero value
// is ready to use.
type OS struct{}

func (OS) Open(name string) (File, error) { return os.Open(name) }

func (OS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}

func (OS) CreateTemp(dir, pattern string) (File, error) { return os.CreateTemp(dir, pattern) }

func (OS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

func (OS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (OS) Remove(name string) error { return os.Remove(name) }

func (OS) Chmod(name string, mode fs.FileMode) error { return os.Chmod(name, mode) }

func (OS) MkdirAll(path string, perm fs.FileMode) error { return os.MkdirAll(path, perm) }

func (OS) ReadDir(name string) ([]fs.DirEntry, error) { return os.ReadDir(name) }

// SyncDir fsyncs dir. Filesystems that reject directory fsync outright
// (EINVAL, ENOTSUP — tmpfs variants, some network filesystems) degrade
// silently: the rename itself is still atomic there, and there is nothing
// further the caller could do. Every other error — EIO, a failing disk —
// propagates, because swallowing it would turn "the rename may not be
// durable" into silent data loss on the next crash.
func (OS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !IgnorableSyncDirError(err) {
		return err
	}
	return nil
}

// IgnorableSyncDirError reports whether a directory-fsync failure means
// "unsupported here" rather than "your data is in danger".
func IgnorableSyncDirError(err error) bool {
	return errors.Is(err, syscall.EINVAL) || errors.Is(err, syscall.ENOTSUP)
}

var _ FS = OS{}

// WriteAtomic replaces the file at path with the bytes write produces, so
// that path holds its complete old content or the complete new one at every
// instant, crash included: temp file in path's directory, write, fsync,
// close, chmod 0644, rename over path, fsync the directory. Nil is returned
// only after that last step (the new content is durable); any earlier
// failure removes the temp file and leaves path untouched.
func WriteAtomic(fsys FS, path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	f, err := fsys.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	cleanup := func(err error) error {
		f.Close()
		fsys.Remove(f.Name())
		return err
	}
	if err := write(f); err != nil {
		return cleanup(err)
	}
	if err := f.Sync(); err != nil {
		return cleanup(err)
	}
	if err := f.Close(); err != nil {
		return cleanup(err)
	}
	if err := fsys.Chmod(f.Name(), 0o644); err != nil {
		return cleanup(err)
	}
	if err := fsys.Rename(f.Name(), path); err != nil {
		return cleanup(err)
	}
	return fsys.SyncDir(dir)
}
