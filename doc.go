// Package repro reproduces "RT Level vs. Microarchitecture-Level
// Reliability Assessment: Case Study on ARM Cortex-A9 CPU" (DSN-W 2017):
// statistical fault injection on two from-scratch simulation models of
// the same CPU — a gem5-class out-of-order microarchitectural model and
// an RTL core on a cycle-based kernel — compared point-to-point with
// equivalent configurations, identical binaries and identical observation
// points. See README.md for the build and module layout, DESIGN.md for
// the architecture walkthrough, and EXPERIMENTS.md for the experiment
// index (E1-E13) and scaling rationale.
package repro
