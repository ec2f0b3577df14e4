package ftp

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/ipstack"
	"repro/internal/sim"
)

// geoNodes builds an NCC node and a satellite node joined by a 125 ms
// one-way pipe with optional loss.
func geoNodes(s *sim.Simulator, loss float64, seed int64) (*ipstack.Node, *ipstack.Node) {
	ia, ib := &ipstack.Interface{}, &ipstack.Interface{}
	rng := rand.New(rand.NewSource(seed))
	mk := func(dst *ipstack.Interface) func([]byte) {
		return func(data []byte) {
			if loss > 0 && rng.Float64() < loss {
				return
			}
			cp := append([]byte{}, data...)
			s.Schedule(0.125, func() { dst.Deliver(cp) })
		}
	}
	ia.SendFunc = mk(ib)
	ib.SendFunc = mk(ia)
	ncc := ipstack.NewNode(s, ipstack.AddrOf(10, 42, 0, 1), ia)
	sat := ipstack.NewNode(s, ipstack.AddrOf(10, 42, 0, 2), ib)
	return ncc, sat
}

func TestTFTPPutSmallFile(t *testing.T) {
	s := sim.New()
	ncc, sat := geoNodes(s, 0, 1)
	srv := NewTFTPServer(sat)
	cli := NewTFTPClient(s, ncc, sat.Addr(), 3000)

	data := []byte("small test vector for the express phase")
	var stored []byte
	srv.OnStored = func(name string, d []byte) {
		if name == "test.bin" {
			stored = d
		}
	}
	done := false
	cli.Put("test.bin", data, func(err error) {
		if err != nil {
			t.Fatal(err)
		}
		done = true
	})
	s.Run()
	if !done || !bytes.Equal(stored, data) {
		t.Fatalf("put failed: done=%v stored=%d bytes", done, len(stored))
	}
}

func TestTFTPPutMultiBlock(t *testing.T) {
	s := sim.New()
	ncc, sat := geoNodes(s, 0, 2)
	srv := NewTFTPServer(sat)
	cli := NewTFTPClient(s, ncc, sat.Addr(), 3000)
	data := make([]byte, 5*TFTPBlockSize+123)
	rand.New(rand.NewSource(3)).Read(data)
	var stored []byte
	srv.OnStored = func(_ string, d []byte) { stored = d }
	cli.Put("multi.bin", data, func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	})
	s.Run()
	if !bytes.Equal(stored, data) {
		t.Fatalf("stored %d want %d", len(stored), len(data))
	}
}

func TestTFTPPutExactMultiple(t *testing.T) {
	// A file of exactly N*512 bytes requires a trailing empty block.
	s := sim.New()
	ncc, sat := geoNodes(s, 0, 4)
	srv := NewTFTPServer(sat)
	cli := NewTFTPClient(s, ncc, sat.Addr(), 3000)
	data := make([]byte, 4*TFTPBlockSize)
	rand.New(rand.NewSource(5)).Read(data)
	var stored []byte
	done := false
	srv.OnStored = func(_ string, d []byte) { stored = d }
	cli.Put("exact.bin", data, func(err error) { done = err == nil })
	s.Run()
	if !done || !bytes.Equal(stored, data) {
		t.Fatal("exact-multiple transfer failed")
	}
}

func TestTFTPRecoversFromLoss(t *testing.T) {
	s := sim.New()
	ncc, sat := geoNodes(s, 0.05, 9)
	srv := NewTFTPServer(sat)
	cli := NewTFTPClient(s, ncc, sat.Addr(), 3000)
	data := make([]byte, 8*TFTPBlockSize+50)
	rand.New(rand.NewSource(10)).Read(data)
	var stored []byte
	srv.OnStored = func(_ string, d []byte) { stored = d }
	cli.Put("lossy.bin", data, func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	})
	s.MaxEvents = 200_000
	s.Run()
	if !bytes.Equal(stored, data) {
		t.Fatalf("lossy put failed: %d of %d (retx %d)", len(stored), len(data), cli.Retransmissions)
	}
	if cli.Retransmissions == 0 {
		t.Fatal("expected retransmissions at 5% loss")
	}
}

func TestTFTPLockStepIsRTTBound(t *testing.T) {
	// RFC 1350 lock-step: one block per RTT. 20 blocks over a 0.25 s RTT
	// must take at least 20 * 0.25 s.
	s := sim.New()
	ncc, sat := geoNodes(s, 0, 11)
	srv := NewTFTPServer(sat)
	cli := NewTFTPClient(s, ncc, sat.Addr(), 3000)
	data := make([]byte, 20*TFTPBlockSize-10)
	var doneAt float64
	srv.OnStored = func(string, []byte) {}
	cli.Put("slow.bin", data, func(err error) { doneAt = s.Now() })
	s.Run()
	if doneAt < 20*0.25 {
		t.Fatalf("lock-step too fast: %g s", doneAt)
	}
}

func TestFileTransferOverTCP(t *testing.T) {
	s := sim.New()
	ncc, sat := geoNodes(s, 0, 12)
	srv := NewFileServer(sat)
	data := make([]byte, 300_000)
	rand.New(rand.NewSource(13)).Read(data)
	var stored []byte
	var doneAt float64
	srv.OnStored = func(name string, d []byte) {
		if name == "demod.bit" {
			stored, doneAt = d, s.Now()
		}
	}
	cli := NewFileClient(ncc, sat.Addr(), 40000, 32)
	cli.Put("demod.bit", data)
	s.MaxEvents = 2_000_000
	s.Run()
	if !bytes.Equal(stored, data) {
		t.Fatalf("file transfer failed: %d of %d", len(stored), len(data))
	}
	// 313 segments at window 32 → ~10 windows → a few seconds.
	if doneAt > 10 {
		t.Fatalf("windowed transfer too slow: %g s", doneAt)
	}
}

func TestWindowedBeatsTFTPForLargeFiles(t *testing.T) {
	// The §3.3 claim: TFTP only for small transfers; FTP/SCPS-FP for
	// large. Compare a 256 kB configuration file.
	data := make([]byte, 256*1024)
	rand.New(rand.NewSource(14)).Read(data)

	tftpTime := func() float64 {
		s := sim.New()
		ncc, sat := geoNodes(s, 0, 15)
		srv := NewTFTPServer(sat)
		cli := NewTFTPClient(s, ncc, sat.Addr(), 3000)
		var doneAt float64
		srv.OnStored = func(string, []byte) { doneAt = s.Now() }
		cli.Put("big.bin", data, func(error) {})
		s.MaxEvents = 1_000_000
		s.Run()
		return doneAt
	}()
	ftpTime := func() float64 {
		s := sim.New()
		ncc, sat := geoNodes(s, 0, 16)
		srv := NewFileServer(sat)
		var doneAt float64
		srv.OnStored = func(string, []byte) { doneAt = s.Now() }
		cli := NewFileClient(ncc, sat.Addr(), 40000, 32)
		cli.Put("big.bin", data)
		s.MaxEvents = 2_000_000
		s.Run()
		return doneAt
	}()
	if tftpTime <= 0 || ftpTime <= 0 {
		t.Fatal("transfers incomplete")
	}
	if ftpTime >= tftpTime/5 {
		t.Fatalf("windowed (%.1f s) must be >=5x faster than TFTP (%.1f s)", ftpTime, tftpTime)
	}
}

func TestMultipleFilesOneConnection(t *testing.T) {
	s := sim.New()
	ncc, sat := geoNodes(s, 0, 17)
	srv := NewFileServer(sat)
	got := map[string][]byte{}
	srv.OnStored = func(name string, d []byte) { got[name] = d }
	cli := NewFileClient(ncc, sat.Addr(), 40000, 16)
	cli.Put("a.bit", []byte("alpha"))
	cli.Put("b.bit", []byte("beta"))
	s.MaxEvents = 100_000
	s.Run()
	if string(got["a.bit"]) != "alpha" || string(got["b.bit"]) != "beta" {
		t.Fatalf("files: %v", got)
	}
}

func TestPolicyMarshalRoundTrip(t *testing.T) {
	p := Policy{Device: "demod-fpga", Design: "tdma-demod-v2", Validate: true, Rollback: true}
	got, err := UnmarshalPolicy(p.Marshal())
	if err != nil || got != p {
		t.Fatalf("round trip: %+v err %v", got, err)
	}
}

func TestCOPSRequestDecisionReport(t *testing.T) {
	s := sim.New()
	ncc, sat := geoNodes(s, 0, 18)
	pdp := NewPDP(ncc)
	pdp.OnRequest = func(ctx string) []Policy {
		if ctx != "boot waveform=cdma" {
			t.Fatalf("context %q", ctx)
		}
		return []Policy{{Device: "demod-fpga", Design: "tdma-demod", Validate: true}}
	}
	var report string
	pdp.OnReport = func(r string) { report = r }

	pep := NewPEP(sat, ncc.Addr(), 50000)
	var decided Policy
	pep.OnDecision = func(p Policy) {
		decided = p
		pep.Report("ok:" + p.Design)
	}
	pep.Request("boot waveform=cdma")
	s.MaxEvents = 100_000
	s.Run()
	if decided.Design != "tdma-demod" || !decided.Validate {
		t.Fatalf("decision %+v", decided)
	}
	if report != "ok:tdma-demod" {
		t.Fatalf("report %q", report)
	}
}

func TestCOPSServerPush(t *testing.T) {
	s := sim.New()
	ncc, sat := geoNodes(s, 0, 19)
	pdp := NewPDP(ncc)
	pep := NewPEP(sat, ncc.Addr(), 50000)
	var decided []Policy
	pep.OnDecision = func(p Policy) { decided = append(decided, p) }
	pep.Request("hello") // establishes the connection server-side
	s.MaxEvents = 50_000
	s.Run()
	pdp.Push(Policy{Device: "decod-fpga", Design: "turbo-decod"})
	s.Run()
	if len(decided) != 1 || decided[0].Design != "turbo-decod" {
		t.Fatalf("push decisions %v", decided)
	}
}
