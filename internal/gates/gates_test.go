package gates

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestPrimitiveCostsPositiveAndMonotone(t *testing.T) {
	if Adder(8) <= 0 || Register(8) <= 0 || Multiplier(8, 8) <= 0 {
		t.Fatal("primitive costs must be positive")
	}
	if Adder(16) <= Adder(8) {
		t.Fatal("adder cost must grow with width")
	}
	if Multiplier(16, 16) <= Multiplier(8, 8) {
		t.Fatal("multiplier cost must grow with width")
	}
	if ComplexMultiplier(12) <= 4*Multiplier(12, 12) {
		t.Fatal("complex multiplier must include the adders")
	}
	if RAM(1000) <= ROM(1000) {
		t.Fatal("RAM bits cost more than ROM bits")
	}
}

func TestDesignAccounting(t *testing.T) {
	d := &Design{Name: "test"}
	d.Add("a", 2, 100)
	d.Add("b", 1, 50)
	if d.TotalGates() != 250 {
		t.Fatalf("total %d", d.TotalGates())
	}
	rep := d.Report()
	if !strings.Contains(rep, "test: 250 gates") || !strings.Contains(rep, "a") {
		t.Fatalf("report: %s", rep)
	}
}

func TestPaperComplexityFigures(t *testing.T) {
	// §2.3: "timing recovery for MF-TDMA with 6 carriers: 200000 gates"
	// and "CDMA with one user: 200000 gates". The architectural model
	// must land within 15% of both.
	tdma := TDMATimingRecovery(6).TotalGates()
	cdma := CDMADemodulator(1).TotalGates()
	for name, got := range map[string]int{"tdma": tdma, "cdma": cdma} {
		if got < 170_000 || got > 230_000 {
			t.Fatalf("%s gate count %d outside 200k +/- 15%%", name, got)
		}
	}
}

func TestCDMAComplexityGrowsWithUsers(t *testing.T) {
	// §2.3: "200000 gates < complexity with several users".
	prev := 0
	for users := 1; users <= 8; users++ {
		g := CDMADemodulator(users).TotalGates()
		if g <= prev {
			t.Fatalf("complexity not increasing at %d users", users)
		}
		prev = g
	}
	// Several users exceed the single-FPGA TDMA profile.
	if CDMADemodulator(4).TotalGates() <= TDMATimingRecovery(6).TotalGates() {
		t.Fatal("multi-user CDMA should exceed the TDMA profile")
	}
}

func TestSwapFitsHardwareProfile(t *testing.T) {
	// The paper's conclusion: a change to a TDMA demodulator is
	// compatible with the existing (CDMA-sized) hardware profile.
	cdmaProfile := CDMADemodulator(1).TotalGates()
	tdma := TDMATimingRecovery(6)
	if float64(tdma.TotalGates()) > 1.1*float64(cdmaProfile) {
		t.Fatalf("TDMA (%d) does not fit the CDMA profile (%d)",
			tdma.TotalGates(), cdmaProfile)
	}
	// And both fit the MH1RT-class device with margin.
	if float64(tdma.TotalGates()) > 0.8*MH1RTCapacity {
		t.Fatal("TDMA design must fit the MH1RT")
	}
}

func TestTDMAScalesWithCarriers(t *testing.T) {
	g1 := TDMATimingRecovery(1).TotalGates()
	g6 := TDMATimingRecovery(6).TotalGates()
	// Per-carrier replication: 6 carriers ≈ 6x the per-carrier cost plus
	// shared control.
	perCarrier := (g6 - 4000) / 6
	if got := g1 - 4000; got != perCarrier {
		t.Fatalf("per-carrier cost inconsistent: %d vs %d", got, perCarrier)
	}
}

func TestDecoderComplexityOrdering(t *testing.T) {
	tu := TurboDecoder(320).TotalGates()
	vi := ConvolutionalDecoder(9, 2).TotalGates()
	// All decoder options fit the same MH1RT-class chip — the premise of
	// the §2.3 decoder-reconfiguration scenario.
	for _, g := range []int{tu, vi} {
		if g > MH1RTCapacity {
			t.Fatalf("decoder %d exceeds device capacity", g)
		}
	}
}

func TestViterbiScalesWithConstraintLength(t *testing.T) {
	if ConvolutionalDecoder(9, 2).TotalGates() <= ConvolutionalDecoder(7, 2).TotalGates() {
		t.Fatal("K=9 must cost more than K=7")
	}
}

func TestTurboScalesWithBlockLength(t *testing.T) {
	if TurboDecoder(5120).TotalGates() <= TurboDecoder(320).TotalGates() {
		t.Fatal("longer blocks need more memory")
	}
}

func TestPropertyDesignTotalIsSumOfBlocks(t *testing.T) {
	f := func(counts []uint8) bool {
		d := &Design{Name: "p"}
		want := 0
		for i, c := range counts {
			n := int(c%7) + 1
			g := (i + 1) * 10
			d.Add("blk", n, g)
			want += n * g
		}
		return d.TotalGates() == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
