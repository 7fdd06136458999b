package space

import "repro/internal/vecmath"

// L2 is the Euclidean metric over dense float32 vectors. It is the distance
// used for the CoPhIR and SIFT experiments in the paper.
type L2 struct{}

// Distance returns the Euclidean distance between data and query.
func (L2) Distance(data, query []float32) float64 { return vecmath.L2(data, query) }

// Name implements Space.
func (L2) Name() string { return "l2" }

// Properties implements Space: L2 is a metric.
func (L2) Properties() Properties { return Properties{Metric: true, Symmetric: true} }

// L1 is the Manhattan metric over dense float32 vectors. The paper uses it to
// cross-check the NAPP implementation against Chávez et al.'s published
// speed-ups on normalized CoPhIR descriptors.
type L1 struct{}

// Distance returns the Manhattan distance between data and query.
func (L1) Distance(data, query []float32) float64 { return vecmath.L1(data, query) }

// Name implements Space.
func (L1) Name() string { return "l1" }

// Properties implements Space: L1 is a metric.
func (L1) Properties() Properties { return Properties{Metric: true, Symmetric: true} }
