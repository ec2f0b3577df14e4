package ftp

import (
	"encoding/binary"

	"repro/internal/ipstack"
)

// SCPS-FP / FTP-style bulk file transfer over the windowed TCP: the
// "large transfer" option of §3.3. The file is framed with a name and
// length header and streamed; TCP's window (sized per RFC 2488) keeps the
// GEO pipe full, which is what makes it beat TFTP's lock-step for
// configuration files.

// FilePort is the well-known port of the file receiver.
const FilePort = 21

// FileServer accepts file uploads over TCP.
type FileServer struct {
	// OnStored fires when a complete file has been received.
	OnStored func(name string, data []byte)
}

// NewFileServer starts listening on FilePort.
func NewFileServer(node *ipstack.Node) *FileServer {
	fs := &FileServer{}
	node.ListenTCP(FilePort, fs.accept)
	return fs
}

func (fs *FileServer) accept(c *ipstack.TCPConn) {
	var buf []byte
	c.OnData = func(d []byte) {
		buf = append(buf, d...)
		for {
			name, payload, rest, ok := parseFileRecord(buf)
			if !ok {
				return
			}
			if fs.OnStored != nil {
				fs.OnStored(name, payload)
			}
			buf = rest
		}
	}
}

// record: nameLen(2) name dataLen(4) data
func parseFileRecord(buf []byte) (name string, data, rest []byte, ok bool) {
	if len(buf) < 2 {
		return
	}
	nl := int(binary.BigEndian.Uint16(buf[0:2]))
	if len(buf) < 2+nl+4 {
		return
	}
	name = string(buf[2 : 2+nl])
	dl := int(binary.BigEndian.Uint32(buf[2+nl : 6+nl]))
	if len(buf) < 6+nl+dl {
		return
	}
	data = append([]byte{}, buf[6+nl:6+nl+dl]...)
	rest = buf[6+nl+dl:]
	ok = true
	return
}

// FileClient uploads files over a TCP connection.
type FileClient struct {
	conn *ipstack.TCPConn
}

// NewFileClient dials the server; window is the TCP send window in
// segments (the RFC 2488 tuning knob the experiments sweep).
func NewFileClient(node *ipstack.Node, server ipstack.Addr, localPort uint16, window int) *FileClient {
	conn := node.DialTCP(server, localPort, FilePort)
	conn.Window = window
	return &FileClient{conn: conn}
}

// Conn exposes the underlying connection (for RTO tuning in tests).
func (fc *FileClient) Conn() *ipstack.TCPConn { return fc.conn }

// Put streams a named file; the server's OnStored callback marks
// delivery.
func (fc *FileClient) Put(name string, data []byte) {
	rec := binary.BigEndian.AppendUint16(make([]byte, 0, 6+len(name)+len(data)), uint16(len(name)))
	rec = binary.BigEndian.AppendUint32(append(rec, name...), uint32(len(data)))
	fc.conn.Send(append(rec, data...))
}
