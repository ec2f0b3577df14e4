// Package experiments regenerates every table, figure and quantitative
// claim of the paper's evaluation (see DESIGN.md §5 for the index):
//
//	E1  Table 1   — MH1RT device characteristics + Monte-Carlo SEU rate
//	E2  §2.3      — gate complexity: TDMA timing recovery vs CDMA demod
//	E3  Fig 3     — CDMA→TDMA waveform migration (BER + throughput)
//	E4  §3.1      — reconfiguration timeline, five-step breakdown
//	E5  §3.3/Fig4 — transfer protocols over GEO: TFTP vs SCPS-FP vs TC
//	E6  §4.3      — SEU mitigation: TMR pe², overheads, scrubbing
//	E7  §4.4      — payload partitioning vs interruption scope
//	E8  §2.3      — decoder reconfiguration: uncoded/conv/turbo
//	E9  §4        — power/thermal budget of the partitionings
//	E11 §2        — sustained MF-TDMA traffic through the closed
//	               regenerative loop, with a mid-run decoder swap
//	E12 §2        — the burst sync chain under per-terminal channel
//	               impairments, over an Eb/N0 sweep
//	E13 §2        — the QoS switching fabric under a best-effort flash
//	               crowd: strict priority against its FIFO twin
//
// Every experiment is a pure function of its parameters (deterministic
// under a fixed seed, whatever GOMAXPROCS) returning a printable
// result; the package tests pin their pass criteria, and
// cmd/experiments/testdata/quick.golden pins the printed -quick output.
package experiments

import (
	"fmt"
	"io"
	"math"
	"math/rand"

	"repro/internal/core"
)

// Row is one printable result line.
type Row struct {
	Label  string
	Values []string
}

// Table is a paper-shaped result table.
type Table struct {
	Title   string
	Columns []string
	Rows    []Row
	Notes   []string
}

// Print renders the table.
func (t *Table) Print(w io.Writer) {
	fmt.Fprintf(w, "== %s ==\n", t.Title)
	fmt.Fprintf(w, "%-38s", "")
	for _, c := range t.Columns {
		fmt.Fprintf(w, " %16s", c)
	}
	fmt.Fprintln(w)
	for _, r := range t.Rows {
		fmt.Fprintf(w, "%-38s", r.Label)
		for _, v := range r.Values {
			fmt.Fprintf(w, " %16s", v)
		}
		fmt.Fprintln(w)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "   note: %s\n", n)
	}
	fmt.Fprintln(w)
}

func f(format string, args ...interface{}) string { return fmt.Sprintf(format, args...) }

// boot builds a system from cfg and runs it past its 2 s boot.
func boot(cfg core.SystemConfig) *core.System {
	sys, err := core.NewSystem(cfg)
	if err != nil {
		panic(err)
	}
	sys.RunUntil(2)
	return sys
}

// randBits produces n deterministic random bits.
func randBits(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(rng.Intn(2))
	}
	return b
}

// qfunc is the Gaussian tail probability.
func qfunc(x float64) float64 { return 0.5 * math.Erfc(x/math.Sqrt2) }
