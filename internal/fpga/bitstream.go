package fpga

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/fec"
)

// Bitstream is the binary configuration file the NCC uploads (§3.1): a
// header identifying the design and target grid, the frame data, per-frame
// CRC-16s (for readback-compare scrubbing) and a global CRC-32 (the
// validation service's auto-test value).
type Bitstream struct {
	Design string
	Rows   int
	Cols   int
	Frames []byte // Rows*Cols*FrameBytes
}

// NewBitstream builds a bitstream for a rows x cols device with all-zero
// (unused) frames.
func NewBitstream(design string, rows, cols int) *Bitstream {
	return &Bitstream{
		Design: design,
		Rows:   rows,
		Cols:   cols,
		Frames: make([]byte, rows*cols*FrameBytes),
	}
}

// SetFrame writes one CLB frame.
func (b *Bitstream) SetFrame(row, col int, frame [FrameBytes]byte) {
	off := (row*b.Cols + col) * FrameBytes
	copy(b.Frames[off:off+FrameBytes], frame[:])
}

// Frame reads one CLB frame.
func (b *Bitstream) Frame(row, col int) [FrameBytes]byte {
	off := (row*b.Cols + col) * FrameBytes
	var f [FrameBytes]byte
	copy(f[:], b.Frames[off:off+FrameBytes])
	return f
}

// FrameCRC returns the CRC-16 of one frame — the per-cell CRC comparison
// §4.3 describes as "less gate consuming than memorizing the file".
func (b *Bitstream) FrameCRC(row, col int) uint16 {
	f := b.Frame(row, col)
	return fec.CRC16CCITT(f[:])
}

// CRC32 returns the global configuration checksum.
func (b *Bitstream) CRC32() uint32 { return fec.CRC32IEEE(b.Frames) }

// Verify checks internal consistency (dimensions vs frame data).
func (b *Bitstream) Verify() error {
	if len(b.Frames) != b.Rows*b.Cols*FrameBytes {
		return errors.New("bitstream frame data does not match device dimensions")
	}
	return nil
}

// bitstream wire format:
//
//	magic "SBIT" | u16 rows | u16 cols | u16 len(design) | design |
//	frames | u32 CRC-32 over everything before it
var bsMagic = []byte("SBIT")

// Marshal serializes the bitstream into the transport format used for the
// NCC-to-satellite file transfer.
func (b *Bitstream) Marshal() []byte {
	if err := b.Verify(); err != nil {
		panic("fpga: Marshal on inconsistent bitstream: " + err.Error())
	}
	out := make([]byte, 0, len(b.Frames)+len(b.Design)+14)
	out = append(out, bsMagic...)
	out = binary.BigEndian.AppendUint16(out, uint16(b.Rows))
	out = binary.BigEndian.AppendUint16(out, uint16(b.Cols))
	out = binary.BigEndian.AppendUint16(out, uint16(len(b.Design)))
	out = append(append(out, b.Design...), b.Frames...)
	return binary.BigEndian.AppendUint32(out, fec.CRC32IEEE(out))
}

// Unmarshal parses and integrity-checks a serialized bitstream.
func Unmarshal(data []byte) (*Bitstream, error) {
	if len(data) < 14 {
		return nil, errors.New("fpga: bitstream too short")
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if fec.CRC32IEEE(body) != binary.BigEndian.Uint32(tail) {
		return nil, errors.New("fpga: bitstream CRC mismatch")
	}
	if string(body[:4]) != string(bsMagic) {
		return nil, errors.New("fpga: bad bitstream magic")
	}
	rows := int(binary.BigEndian.Uint16(body[4:6]))
	cols := int(binary.BigEndian.Uint16(body[6:8]))
	nameLen := int(binary.BigEndian.Uint16(body[8:10]))
	if len(body) < 10+nameLen {
		return nil, errors.New("fpga: truncated design name")
	}
	design := string(body[10 : 10+nameLen])
	frames := body[10+nameLen:]
	bs := &Bitstream{Design: design, Rows: rows, Cols: cols, Frames: append([]byte{}, frames...)}
	if err := bs.Verify(); err != nil {
		return nil, fmt.Errorf("fpga: %w", err)
	}
	return bs, nil
}

// Snapshot captures the device's current configuration as a bitstream —
// the golden reference a scrubber compares against.
func Snapshot(d *Device, design string) *Bitstream {
	bs := NewBitstream(design, d.Rows(), d.Cols())
	copy(bs.Frames, d.config)
	return bs
}
