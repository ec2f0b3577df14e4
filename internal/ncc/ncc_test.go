package ncc

import (
	"strings"
	"testing"

	"repro/internal/ftp"
	"repro/internal/ipstack"
	"repro/internal/sim"
)

// pipeNodes builds NCC and satellite IP nodes over a 125 ms pipe.
func pipeNodes(s *sim.Simulator) (*ipstack.Node, *ipstack.Node) {
	ia, ib := &ipstack.Interface{}, &ipstack.Interface{}
	mk := func(dst *ipstack.Interface) func([]byte) {
		return func(data []byte) {
			cp := append([]byte{}, data...)
			s.Schedule(0.125, func() { dst.Deliver(cp) })
		}
	}
	ia.SendFunc = mk(ib)
	ib.SendFunc = mk(ia)
	return ipstack.NewNode(s, ipstack.AddrOf(10, 42, 0, 1), ia),
		ipstack.NewNode(s, ipstack.AddrOf(10, 42, 0, 2), ib)
}

func TestCatalog(t *testing.T) {
	s := sim.New()
	g, sat := pipeNodes(s)
	n := New(s, g, sat.Addr())
	n.Catalog("a.bit", []byte{1, 2, 3})
	if len(n.catalog) != 1 || len(n.catalog["a.bit"]) != 3 {
		t.Fatalf("catalog %v", n.catalog)
	}
}

func TestUploadUnknownFileFails(t *testing.T) {
	s := sim.New()
	g, sat := pipeNodes(s)
	n := New(s, g, sat.Addr())
	var gotErr error
	n.Upload("ghost", ProtoTFTP, 8, func(err error) { gotErr = err })
	s.Run()
	if gotErr == nil {
		t.Fatal("must fail for unknown file")
	}
}

func TestUploadTFTPAgainstServer(t *testing.T) {
	s := sim.New()
	g, sat := pipeNodes(s)
	srv := ftp.NewTFTPServer(sat)
	stored := -1
	srv.OnStored = func(name string, data []byte) {
		if name == "demod.bit" {
			stored = len(data)
		}
	}
	n := New(s, g, sat.Addr())
	data := make([]byte, 1500)
	n.Catalog("demod.bit", data)
	done := false
	n.Upload("demod.bit", ProtoTFTP, 8, func(err error) { done = err == nil })
	s.Run()
	if !done {
		t.Fatal("upload incomplete")
	}
	if stored != 1500 {
		t.Fatal("server did not store the file")
	}
}

func TestUploadSCPSFPWithConfirm(t *testing.T) {
	s := sim.New()
	g, sat := pipeNodes(s)
	srv := ftp.NewFileServer(sat)
	n := New(s, g, sat.Addr())
	// Glue: satellite confirms storage back to the NCC (as core does).
	srv.OnStored = func(name string, _ []byte) {
		s.Schedule(0.125, func() { n.ConfirmStored(name) })
	}
	n.Catalog("big.bit", make([]byte, 40_000))
	done := false
	n.Upload("big.bit", ProtoSCPSFP, 16, func(err error) { done = err == nil })
	s.MaxEvents = 1_000_000
	s.Run()
	if !done {
		t.Fatal("SCPS-FP upload not confirmed")
	}
}

func TestReportsTimestamped(t *testing.T) {
	s := sim.New()
	g, sat := pipeNodes(s)
	n := New(s, g, sat.Addr())
	pep := ftp.NewPEP(sat, g.Addr(), 40000)
	pep.Request("hello")
	s.Run()
	s.Schedule(3, func() { pep.Report("ok:demod-fpga:tdma.bit:crc=0000abcd") })
	s.Run()
	want := Report{Device: "demod-fpga", Design: "tdma.bit", OK: true}
	if len(n.Reports) != 1 {
		t.Fatalf("reports %v", n.Reports)
	}
	got := n.Reports[0]
	if got.Time < 3 {
		t.Fatalf("report time %g", got.Time)
	}
	if got.Time = 0; got != want {
		t.Fatalf("report %+v, want %+v", got, want)
	}
}

// Every report is kept: a malformed one as not OK, its raw text the
// reason, never dropped.
func TestParseReport(t *testing.T) {
	for _, tc := range []struct {
		text string
		want Report
	}{
		{"ok:dev:d.bit:crc=12", Report{Device: "dev", Design: "d.bit", OK: true}},
		{"fail:dev::crc=0", Report{Device: "dev", Reason: "fail:dev::crc=0"}},
		{"", Report{}},
		{"ok:dev:crc=12", Report{Reason: "ok:dev:crc=12"}},
		{"ok:dev:d.bit:12", Report{Reason: "ok:dev:d.bit:12"}},
		{"ok:dev:a:b.bit:crc=12", Report{Device: "dev", Design: "a:b.bit", OK: true}},
		{"maybe:dev:d.bit:crc=12", Report{Device: "dev", Design: "d.bit", Reason: "maybe:dev:d.bit:crc=12"}},
	} {
		want := tc.want
		want.Time = 7
		if got := parseReport(tc.text, 7); got != want {
			t.Errorf("%q: %+v, want %+v", tc.text, got, want)
		}
	}
}

// Arbitrary report bytes: a report, never a panic; one that is not OK
// carries its raw text, and an OK one re-forms the fields it came from.
func FuzzParseReport(f *testing.F) {
	for _, seed := range []string{"ok:demod-fpga:tdma.bit:crc=0000abcd", "fail:demod-fpga::crc=00000000", "ok:test", ""} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		r := parseReport(text, 1)
		if r.Time != 1 {
			t.Fatalf("%q: time %g", text, r.Time)
		}
		if !r.OK {
			if r.Reason != text {
				t.Fatalf("%q: reason %q", text, r.Reason)
			}
			return
		}
		if r.Reason != "" || !strings.HasPrefix(text, "ok:"+r.Device+":"+r.Design+":crc=") {
			t.Fatalf("%q: parsed as %+v", text, r)
		}
	})
}

func TestProtocolStrings(t *testing.T) {
	if ProtoTFTP.String() != "tftp" || ProtoSCPSFP.String() != "scps-fp" {
		t.Fatal("names")
	}
}
