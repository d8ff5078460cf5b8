// Package repro is the root of the Glasgow Raspberry Pi Cloud (PiCloud)
// reproduction: a deterministic, full-stack scale model of the 56-node
// Raspberry Pi data-centre testbed described in Tso et al., "The Glasgow
// Raspberry Pi Cloud: A Scale Model for Cloud Computing Infrastructures"
// (CCRM / ICDCS Workshops 2013).
//
// The entry point for library users is internal/core (the Cloud facade);
// runnable binaries live under cmd/ and worked examples under examples/.
// See README.md for the tour and its Layout section for the package
// inventory; `go run ./cmd/pibench -exp all` prints the
// paper-versus-measured record. The benchmarks in bench_test.go
// regenerate every table and figure.
package repro
