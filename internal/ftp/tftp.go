// Package ftp implements the file-handling protocols of the paper's N3
// reconfiguration system (§3.3): a TFTP with RFC 1350 semantics (512-byte
// blocks in lock-step over UDP — "it has to be used only for small
// transfer for efficiency reason"), a windowed SCPS-FP/FTP-style transfer
// over TCP for large configuration files, and a COPS-style policy
// exchange for sending reconfiguration policies.
package ftp

import (
	"encoding/binary"
	"errors"
	"strconv"

	"repro/internal/ipstack"
	"repro/internal/sim"
)

// TFTP constants (RFC 1350).
const (
	TFTPPort      = 69
	TFTPBlockSize = 512

	opWRQ   = 2
	opDATA  = 3
	opACK   = 4
	opERROR = 5
)

// tftp packet helpers --------------------------------------------------

// tftpReq is op and a NUL-terminated string: a request with its file
// name, or an ERROR with its two-byte code and message.
func tftpReq(op uint16, s string) []byte {
	return append(binary.BigEndian.AppendUint16(make([]byte, 0, 3+len(s)), op), s+"\x00"...)
}

// tftpBlock is op, a block number and data: DATA, or ACK without data.
func tftpBlock(op, block uint16, data []byte) []byte {
	out := binary.BigEndian.AppendUint16(make([]byte, 0, 4+len(data)), op)
	return append(binary.BigEndian.AppendUint16(out, block), data...)
}

// TFTPServer receives files over UDP port 69: write (WRQ) transfers in
// strict lock-step. Read transfers are not served — the NCC only ever
// uploads.
type TFTPServer struct {
	node *ipstack.Node

	// OnStored is invoked when a write transfer completes.
	OnStored func(name string, data []byte)

	// active write transfers keyed by client address/port
	writes map[string]*tftpWrite
}

type tftpWrite struct {
	name     string
	data     []byte
	expected uint16
	done     bool
}

// NewTFTPServer binds the server on the node.
func NewTFTPServer(node *ipstack.Node) *TFTPServer {
	srv := &TFTPServer{node: node, writes: make(map[string]*tftpWrite)}
	node.BindUDP(TFTPPort, srv.handle)
	return srv
}

func clientKey(src ipstack.Addr, port uint16) string {
	return src.String() + ":" + strconv.Itoa(int(port))
}

func (srv *TFTPServer) handle(src ipstack.Addr, srcPort uint16, data []byte) {
	if len(data) < 2 {
		return
	}
	op := binary.BigEndian.Uint16(data[0:2])
	key := clientKey(src, srcPort)
	reply := func(pkt []byte) { srv.node.SendUDP(src, TFTPPort, srcPort, pkt) }

	switch op {
	case opWRQ:
		name, ok := parseName(data[2:])
		if !ok {
			reply(tftpReq(opERROR, "\x00\x00bad request"))
			return
		}
		srv.writes[key] = &tftpWrite{name: name, expected: 1}
		reply(tftpBlock(opACK, 0, nil))
	case opDATA:
		w, ok := srv.writes[key]
		if !ok || w.done {
			return
		}
		if len(data) < 4 {
			return
		}
		block := binary.BigEndian.Uint16(data[2:4])
		payload := data[4:]
		if block == w.expected {
			w.data = append(w.data, payload...)
			w.expected++
			if len(payload) < TFTPBlockSize {
				w.done = true
				if srv.OnStored != nil {
					srv.OnStored(w.name, w.data)
				}
			}
		}
		// Ack the last in-order block (handles duplicates).
		reply(tftpBlock(opACK, w.expected-1, nil))
	}
}

func parseName(b []byte) (string, bool) {
	for i, c := range b {
		if c == 0 {
			return string(b[:i]), i > 0
		}
	}
	return "", false
}

// TFTPClient drives transfers against a server.
type TFTPClient struct {
	s      *sim.Simulator
	node   *ipstack.Node
	server ipstack.Addr
	port   uint16

	timeout float64
	retries int

	put *putState

	Retransmissions int
}

type putState struct {
	data  []byte
	block uint16 // next block to send after ack of block-1
	done  func(err error)
	fin   bool
	timer int
}

// NewTFTPClient creates a client bound to a local UDP port.
func NewTFTPClient(s *sim.Simulator, node *ipstack.Node, server ipstack.Addr, localPort uint16) *TFTPClient {
	c := &TFTPClient{s: s, node: node, server: server, port: localPort, timeout: 1.0, retries: 8}
	node.BindUDP(localPort, c.handle)
	return c
}

// Put uploads a file (WRQ); done fires on completion or failure.
func (c *TFTPClient) Put(name string, data []byte, done func(err error)) {
	c.put = &putState{data: data, block: 0, done: done}
	c.sendReq(tftpReq(opWRQ, name))
}

func (c *TFTPClient) sendReq(pkt []byte) {
	c.node.SendUDP(c.server, c.port, TFTPPort, pkt)
	c.armPutTimer(pkt, c.retries)
}

// armPutTimer retransmits the given packet until superseded.
func (c *TFTPClient) armPutTimer(pkt []byte, retries int) {
	p := c.put
	if p == nil {
		return
	}
	p.timer++
	id := p.timer
	c.s.Schedule(c.timeout, func() {
		if p.timer == id && retries > 0 && c.put != nil && !c.put.fin {
			c.Retransmissions++
			c.node.SendUDP(c.server, c.port, TFTPPort, pkt)
			c.armPutTimer(pkt, retries-1)
		}
	})
}

func (c *TFTPClient) handle(src ipstack.Addr, srcPort uint16, data []byte) {
	if len(data) < 2 {
		return
	}
	op := binary.BigEndian.Uint16(data[0:2])
	switch op {
	case opACK:
		p := c.put
		if p == nil || p.fin || len(data) < 4 {
			return
		}
		block := binary.BigEndian.Uint16(data[2:4])
		if block != p.block {
			return
		}
		nblocks := uint16(len(p.data)/TFTPBlockSize + 1)
		if block == nblocks {
			// The final short (possibly empty) block was acknowledged.
			p.fin = true
			p.timer++
			if p.done != nil {
				p.done(nil)
			}
			return
		}
		p.block++
		start := (int(p.block) - 1) * TFTPBlockSize
		end := min(start+TFTPBlockSize, len(p.data))
		pkt := tftpBlock(opDATA, p.block, p.data[start:end])
		c.node.SendUDP(c.server, c.port, TFTPPort, pkt)
		c.armPutTimer(pkt, c.retries)
	case opERROR:
		if c.put != nil && !c.put.fin {
			c.put.fin = true
			if c.put.done != nil {
				c.put.done(errors.New("ftp: server error"))
			}
		}
	}
}
