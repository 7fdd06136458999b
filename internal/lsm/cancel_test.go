package lsm

import (
	"context"
	"errors"
	"testing"

	"repro/internal/index"
)

// TestSearchAppendCtxCanceled: a canceled context stops the scatter before
// any component is searched and surfaces ctx.Err(); the same call on a live
// context — or with none — still answers.
func TestSearchAppendCtxCanceled(t *testing.T) {
	tree := mustOpen(t, testOptions(t, 0))
	defer tree.Close()
	vecs := randVecs(3, 9)
	for _, v := range vecs[:6] {
		if _, err := tree.Add(encVec(v)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tree.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, v := range vecs[6:] {
		if _, err := tree.Add(encVec(v)); err != nil {
			t.Fatal(err)
		}
	}

	q := randVecs(4, 1)[0]
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, err := tree.SearchAppend(nil, nil, q, index.Options{K: 3, Ctx: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled search err = %v, want context.Canceled", err)
	}
	if len(out) != 0 {
		t.Fatalf("canceled search returned %d results", len(out))
	}

	out, err = tree.SearchAppend(nil, nil, q, index.Options{K: 3, Ctx: context.Background()})
	if err != nil || len(out) != 3 {
		t.Fatalf("live search = (%d results, %v), want 3 results", len(out), err)
	}
	if got := search(tree, nil, q, 3); len(got) != 3 {
		t.Fatalf("ctx-less search returned %d results", len(got))
	}
}
