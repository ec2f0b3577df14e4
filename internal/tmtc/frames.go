package tmtc

import (
	"encoding/binary"
	"errors"

	"repro/internal/fec"
)

// FrameType distinguishes telecommand service types on a virtual channel.
type FrameType byte

// Frame types.
const (
	// FrameBD is the express mode: unacknowledged, at-most-once.
	FrameBD FrameType = iota
	// FrameAD is the controlled mode: sequence-checked, acknowledged.
	FrameAD
	// FrameCLCW is the command link control word reporting the receiver
	// state (returned on the TM downlink).
	FrameCLCW
)

// MaxFrameData is the maximum payload of one transfer frame, matching the
// CCSDS TC frame budget of ~1 KiB.
const MaxFrameData = 1017

// Frame is a TC/TM transfer frame.
type Frame struct {
	VC      byte // virtual channel id
	Type    FrameType
	Seq     byte // frame sequence number (AD mode), modulo 256
	Payload []byte
}

// Marshal serializes the frame with a trailing CRC-16.
func (f *Frame) Marshal() []byte {
	if len(f.Payload) > MaxFrameData {
		panic("tmtc: frame payload exceeds MaxFrameData")
	}
	out := make([]byte, 0, len(f.Payload)+7)
	out = binary.BigEndian.AppendUint16(append(out, f.VC, byte(f.Type), f.Seq), uint16(len(f.Payload)))
	return fec.AppendCRC16(append(out, f.Payload...))
}

// UnmarshalFrame parses and CRC-checks a received frame. A CRC failure
// returns an error — the "error-controlled data path" of the channel
// service drops such frames.
func UnmarshalFrame(data []byte) (*Frame, error) {
	body, ok := fec.CheckCRC16(data)
	if !ok {
		return nil, errors.New("tmtc: frame CRC failure")
	}
	if len(body) < 5 {
		return nil, errors.New("tmtc: frame too short")
	}
	ln := int(binary.BigEndian.Uint16(body[3:5]))
	if len(body) != 5+ln {
		return nil, errors.New("tmtc: frame length mismatch")
	}
	return &Frame{
		VC:      body[0],
		Type:    FrameType(body[1]),
		Seq:     body[2],
		Payload: append([]byte{}, body[5:]...),
	}, nil
}

// Segment splits a data unit into frame-sized chunks, implementing the
// data routing service's segmentation ("data unit received from upper
// layer are, if needed, segmented ... encapsulated into data transfer
// structure").
func Segment(data []byte, maxLen int) [][]byte {
	if maxLen <= 0 {
		panic("tmtc: segment size must be positive")
	}
	var out [][]byte
	for len(data) > 0 {
		n := min(maxLen, len(data))
		out = append(out, data[:n])
		data = data[n:]
	}
	if out == nil {
		out = [][]byte{{}}
	}
	return out
}

// CLCW is the receiver status report of the controlled mode.
type CLCW struct {
	VC       byte
	Expected byte // next expected frame sequence number
	Lockout  bool
}

// Marshal packs the CLCW into a frame payload.
func (c CLCW) Marshal() []byte {
	b := byte(0)
	if c.Lockout {
		b = 1
	}
	return []byte{c.VC, c.Expected, b}
}

// UnmarshalCLCW parses a CLCW payload.
func UnmarshalCLCW(data []byte) (CLCW, error) {
	if len(data) != 3 {
		return CLCW{}, errors.New("tmtc: bad CLCW length")
	}
	return CLCW{VC: data[0], Expected: data[1], Lockout: data[2] == 1}, nil
}
