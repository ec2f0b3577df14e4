// Package ncc implements the ground-side network control center: the
// operator that holds the bitstream catalog, uploads configuration files
// to the satellite over the N1-N3 protocol stack, pushes reconfiguration
// policies (COPS), and collects telemetry reports. The paper's
// reconfiguration is always ground-initiated ("the satellite operator is
// equally in charge of the reconfiguration", §3.3).
package ncc

import (
	"errors"
	"strings"

	"repro/internal/ftp"
	"repro/internal/ipstack"
	"repro/internal/sim"
)

// Protocol selects the file-transfer protocol for an upload (§3.3's
// trade: TFTP for small files, FTP/SCPS-FP for large).
type Protocol int

// Upload protocols.
const (
	ProtoTFTP Protocol = iota
	ProtoSCPSFP
)

// String implements fmt.Stringer.
func (p Protocol) String() string {
	if p == ProtoTFTP {
		return "tftp"
	}
	return "scps-fp"
}

// NCC is the network control center.
type NCC struct {
	node    *ipstack.Node
	satAddr ipstack.Addr

	tftp   *ftp.TFTPClient
	files  *ftp.FileClient
	pdp    *ftp.PDP
	fileOK map[string]func() // pending SCPS-FP completions by name

	// catalog of bitstreams available for upload.
	catalog map[string][]byte

	// Reports collects the reconfiguration reports received from the
	// satellite, in arrival order.
	Reports []Report
}

// Report is one reconfiguration report of the on-board PEP, parsed from
// its COPS text "<ok|fail>:<device>:<design>:crc=<hex>".
type Report struct {
	Device string
	Design string
	OK     bool
	// Reason is the raw report text when the report is not OK.
	Reason string
	// Time is the simulation time the report reached the NCC.
	Time float64
}

// parseReport parses one report text received at time at. A report
// without the four fields is kept, not OK, with its raw text as the
// reason; so is one whose status is not "ok".
func parseReport(text string, at float64) Report {
	r := Report{Reason: text, Time: at}
	f := strings.Split(text, ":")
	n := len(f)
	if n < 4 || !strings.HasPrefix(f[n-1], "crc=") {
		return r
	}
	r.Device, r.Design = f[1], strings.Join(f[2:n-1], ":")
	if f[0] == "ok" {
		r.OK, r.Reason = true, ""
	}
	return r
}

// New creates the NCC on its ground IP node. The returned NCC runs a
// COPS PDP and both file transfer clients against the satellite address.
func New(s *sim.Simulator, node *ipstack.Node, satAddr ipstack.Addr) *NCC {
	n := &NCC{
		node:    node,
		satAddr: satAddr,
		catalog: make(map[string][]byte),
		fileOK:  make(map[string]func()),
	}
	n.tftp = ftp.NewTFTPClient(s, node, satAddr, 32001)
	n.pdp = ftp.NewPDP(node)
	n.pdp.OnReport = func(r string) {
		n.Reports = append(n.Reports, parseReport(r, s.Now()))
	}
	return n
}

// Catalog registers a bitstream file available for upload.
func (n *NCC) Catalog(name string, data []byte) {
	n.catalog[name] = append([]byte{}, data...)
}

// Upload transfers a catalogued file to the satellite's on-board memory
// using the selected protocol. done fires when the satellite has stored
// the file (for SCPS-FP, when the application-level record completes;
// the caller should also watch the satellite store).
func (n *NCC) Upload(name string, proto Protocol, window int, done func(err error)) {
	data, ok := n.catalog[name]
	if !ok {
		done(errors.New("ncc: file not in catalog"))
		return
	}
	switch proto {
	case ProtoTFTP:
		n.tftp.Put(name, data, done)
	case ProtoSCPSFP:
		if n.files == nil {
			n.files = ftp.NewFileClient(n.node, n.satAddr, 32002, window)
		}
		n.files.Conn().Window = window
		n.fileOK[name] = func() { done(nil) }
		n.files.Put(name, data)
	}
}

// ConfirmStored is called by the system glue when the satellite reports a
// file stored (SCPS-FP completion path).
func (n *NCC) ConfirmStored(name string) {
	if cb, ok := n.fileOK[name]; ok {
		delete(n.fileOK, name)
		cb()
	}
}

// PushPolicy sends a reconfiguration policy to the satellite PEP.
func (n *NCC) PushPolicy(p ftp.Policy) { n.pdp.Push(p) }
