// Package repro reproduces "Towards Generic Satellite Payloads: Software
// Radio" (Morlet, Boucheret, Calmettes, Paillassa, Perennou; IPPS/IPDPS
// Workshops 2003) as a runnable Go system: a regenerative MF-TDMA
// satellite payload whose digital functions (DEMUX, DEMOD, DECOD,
// switching) live on simulated SRAM FPGAs and are reconfigured in flight
// from a ground network control center over a TC/TM + IP + TFTP/SCPS-FP/
// COPS protocol stack, under a radiation environment with SEU mitigation.
//
// See DESIGN.md for the system inventory, the per-experiment index, the
// architecture of the concurrent per-carrier receive and transmit
// pipelines plus the sustained-load traffic engine, and the declarative
// scenario runtime (specs, presets, sessions and scripted events) that
// drives missions over the closed loop. cmd/experiments regenerates every
// table and figure, cmd/trafficsim runs scripted missions
// (-scenario/-preset), cmd/nccctl runs one ground-initiated
// reconfiguration from the operator's seat, and the repo benchmark
// (bench/, BENCHMARK.json) measures the whole loop end to end and layer
// by layer.
package repro
