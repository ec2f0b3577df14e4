package ncc

import (
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
	srv := ftp.NewTFTPServer(s, sat)
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
	s.Schedule(3, func() { pep.Report("ok:test") })
	s.Run()
	if len(n.Reports) != 1 || n.Reports[0] != "ok:test" {
		t.Fatalf("reports %v", n.Reports)
	}
	if len(n.ReportTimes) != 1 || n.ReportTimes[0] < 3 {
		t.Fatalf("report times %v", n.ReportTimes)
	}
}

func TestProtocolStrings(t *testing.T) {
	if ProtoTFTP.String() != "tftp" || ProtoSCPSFP.String() != "scps-fp" {
		t.Fatal("names")
	}
}
