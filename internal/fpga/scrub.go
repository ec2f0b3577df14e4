package fpga

import "repro/internal/fec"

// Configuration scrubbing (§4.3): the paper describes two repair schemes
// built on the read-back and partial-configuration functions —
// detection by readback-compare (memorizing the golden file, or the
// cheaper per-cell CRC comparison) followed by partial reconfiguration of
// the dirty cell, and blind periodic re-programming of every cell ("SEU
// scrubbing ... the most interesting solution for satellite applications").

// Scrubber repairs a device's configuration toward a golden bitstream.
type Scrubber interface {
	// Scrub performs one scrub pass and returns the number of frames
	// rewritten.
	Scrub(d *Device) int
	// PortWritesPerPass returns the partial-configuration transactions a
	// pass costs (config-port bandwidth).
	PortWritesPerPass(d *Device) int
	// StorageBytes returns the on-board golden-reference storage the
	// scheme needs (full file vs per-frame CRCs).
	StorageBytes() int
	// Name identifies the scheme.
	Name() string
}

// BlindScrubber rewrites every frame each pass without reading back.
type BlindScrubber struct {
	golden *Bitstream
}

// NewBlindScrubber builds the blind scheme against a golden bitstream.
func NewBlindScrubber(golden *Bitstream) *BlindScrubber {
	return &BlindScrubber{golden: golden}
}

// Name implements Scrubber.
func (s *BlindScrubber) Name() string { return "blind-scrub" }

// Scrub implements Scrubber: unconditionally rewrite all frames.
func (s *BlindScrubber) Scrub(d *Device) int {
	for r := 0; r < d.Rows(); r++ {
		for c := 0; c < d.Cols(); c++ {
			d.PartialWrite(r, c, s.golden.Frame(r, c))
		}
	}
	return d.Rows() * d.Cols()
}

// PortWritesPerPass implements Scrubber.
func (s *BlindScrubber) PortWritesPerPass(d *Device) int { return d.Rows() * d.Cols() }

// StorageBytes implements Scrubber: the full golden file must be held
// on board.
func (s *BlindScrubber) StorageBytes() int { return len(s.golden.Frames) }

// DetectMode selects how a readback scrubber recognizes a corrupted frame.
type DetectMode int

// Detection modes from §4.3.
const (
	// DetectCompareFull memorizes the whole golden file and compares
	// frames byte for byte.
	DetectCompareFull DetectMode = iota
	// DetectCRC stores only a CRC-16 per frame ("less gate consuming
	// than memorizing the file").
	DetectCRC
)

// ReadbackScrubber reads every frame back, detects corruption, and
// rewrites only dirty frames via partial configuration.
type ReadbackScrubber struct {
	golden *Bitstream
	mode   DetectMode
	crcs   []uint16
}

// NewReadbackScrubber builds the readback-compare scheme.
func NewReadbackScrubber(golden *Bitstream, mode DetectMode) *ReadbackScrubber {
	s := &ReadbackScrubber{golden: golden, mode: mode}
	if mode == DetectCRC {
		s.crcs = make([]uint16, golden.Rows*golden.Cols)
		for r := 0; r < golden.Rows; r++ {
			for c := 0; c < golden.Cols; c++ {
				s.crcs[r*golden.Cols+c] = golden.FrameCRC(r, c)
			}
		}
	}
	return s
}

// Name implements Scrubber.
func (s *ReadbackScrubber) Name() string {
	if s.mode == DetectCRC {
		return "readback-crc"
	}
	return "readback-compare"
}

// Scrub implements Scrubber.
func (s *ReadbackScrubber) Scrub(d *Device) int {
	repaired := 0
	for r := 0; r < d.Rows(); r++ {
		for c := 0; c < d.Cols(); c++ {
			got := d.Readback(r, c)
			dirty := false
			switch s.mode {
			case DetectCompareFull:
				dirty = got != s.golden.Frame(r, c)
			case DetectCRC:
				// A CRC mismatch flags the frame; the repair data still
				// comes from the golden file (held by the controller).
				crc := frameCRC(got)
				dirty = crc != s.crcs[r*d.Cols()+c]
			}
			if dirty {
				d.PartialWrite(r, c, s.golden.Frame(r, c))
				repaired++
			}
		}
	}
	return repaired
}

// PortWritesPerPass implements Scrubber: in the common (clean) case a
// pass costs only readbacks, no writes.
func (s *ReadbackScrubber) PortWritesPerPass(d *Device) int { return 0 }

// StorageBytes implements Scrubber: the comparison reference — full file
// or two bytes per frame.
func (s *ReadbackScrubber) StorageBytes() int {
	if s.mode == DetectCRC {
		return 2 * s.golden.Rows * s.golden.Cols
	}
	return len(s.golden.Frames)
}

func frameCRC(f [FrameBytes]byte) uint16 {
	return fec.CRC16CCITT(f[:])
}

// CountCorruptedFrames compares a device against a golden bitstream
// without touching the readback counters (test/telemetry helper).
func CountCorruptedFrames(d *Device, golden *Bitstream) int {
	n := 0
	for r := 0; r < d.Rows(); r++ {
		for c := 0; c < d.Cols(); c++ {
			off := d.frameOffset(r, c)
			var f [FrameBytes]byte
			copy(f[:], d.config[off:off+FrameBytes])
			if f != golden.Frame(r, c) {
				n++
			}
		}
	}
	return n
}
