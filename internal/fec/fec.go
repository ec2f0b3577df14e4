// Package fec implements the forward error correction schemes the paper's
// §2.3 names for the UMTS decoder-reconfiguration case study: the uncoded
// mode, convolutional coding with Viterbi decoding, and turbo coding with
// iterative max-log-MAP decoding, plus the CRC generators used both by the
// codecs and by the FPGA configuration validation service.
//
// Bits are represented as []byte with values 0 or 1; soft values are
// float64 log-likelihood ratios with the convention LLR > 0 ⇒ bit 0.
package fec

import (
	"fmt"
	"slices"
)

// Codec is a channel code as seen by the payload DECOD equipment. A codec
// is the unit of decoder reconfiguration: swapping the on-board decoding
// algorithm (§2.3 bullet 1) means loading a bitstream implementing a
// different Codec.
type Codec interface {
	// Name identifies the scheme (e.g. "uncoded", "conv-r1/2-k9", "turbo").
	Name() string
	// Rate returns the nominal code rate k/n.
	Rate() float64
	// Encode maps information bits to coded bits.
	Encode(info []byte) []byte
	// AppendEncode appends Encode(info)'s bits to dst and returns the
	// extended slice.
	AppendEncode(dst, info []byte) []byte
	// Decode maps received soft values (one LLR per coded bit, positive
	// meaning bit 0) back to information bits.
	Decode(llr []float64) []byte
	// AppendDecode appends Decode(llr)'s bits to dst and returns the
	// extended slice, allocation-free when dst has room.
	AppendDecode(dst []byte, llr []float64) []byte
	// EncodedLen returns the number of coded bits produced for k info bits.
	EncodedLen(k int) int
	// CheckDecodeLen returns nil if Decode accepts n soft values, else an
	// error naming the constraint n breaks (Decode panics on it): callers
	// decoding received data check first, so a burst of the wrong length
	// is an error of that burst.
	CheckDecodeLen(n int) error
}

// AppendEncode is c.AppendEncode(dst, info), for callers of the
// function form.
func AppendEncode(c Codec, dst, info []byte) []byte { return c.AppendEncode(dst, info) }

// Uncoded is the pass-through scheme ("some transmissions can accept a
// non-coded mode", §2.3).
type Uncoded struct{}

// Name implements Codec.
func (Uncoded) Name() string { return "uncoded" }

// Rate implements Codec.
func (Uncoded) Rate() float64 { return 1 }

// Encode implements Codec.
func (Uncoded) Encode(info []byte) []byte {
	return slices.Clone(info)
}

// AppendEncode implements Codec.
func (Uncoded) AppendEncode(dst, info []byte) []byte { return append(dst, info...) }

// Decode implements Codec: hard decision on each LLR.
func (u Uncoded) Decode(llr []float64) []byte { return u.AppendDecode(nil, llr) }

// AppendDecode implements Codec.
func (Uncoded) AppendDecode(dst []byte, llr []float64) []byte {
	for _, l := range llr {
		dst = append(dst, 0)
		if l < 0 {
			dst[len(dst)-1] = 1
		}
	}
	return dst
}

// EncodedLen implements Codec.
func (Uncoded) EncodedLen(k int) int { return k }

// CheckDecodeLen implements Codec: every length decodes.
func (Uncoded) CheckDecodeLen(int) error { return nil }

// HardLLR converts hard bits to saturated LLRs (for loopback tests).
func HardLLR(bits []byte) []float64 {
	llr := make([]float64, len(bits))
	for i, b := range bits {
		if b == 0 {
			llr[i] = 10
		} else {
			llr[i] = -10
		}
	}
	return llr
}

// CountBitErrors returns the number of positions where a and b differ.
// It panics if lengths differ.
func CountBitErrors(a, b []byte) int {
	if len(a) != len(b) {
		panic(fmt.Sprintf("fec: CountBitErrors length mismatch %d vs %d", len(a), len(b)))
	}
	n := 0
	for i := range a {
		if a[i] != b[i] {
			n++
		}
	}
	return n
}
