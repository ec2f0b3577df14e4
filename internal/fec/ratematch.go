package fec

import "fmt"

// Rate matching per the UMTS multiplexing chain the paper cites ([4],
// 3G TS 25.212): the coded stream is punctured (bits deleted) or
// repeated to fit the physical-channel budget. This module implements
// periodic puncturing with de-puncturing at the receiver (erased
// positions get zero LLR), allowing intermediate rates — e.g. 2/3 from
// the rate-1/2 mother code — on the same decoder hardware, which is
// itself a form of the paper's parameterized (dynamic) reconfiguration.

// PuncturePattern is a repeating keep/delete mask over coded bits
// (true = transmit).
type PuncturePattern []bool

// Validate checks the pattern is usable.
func (p PuncturePattern) Validate() error {
	if len(p) == 0 {
		return fmt.Errorf("fec: empty puncture pattern")
	}
	kept := 0
	for _, k := range p {
		if k {
			kept++
		}
	}
	if kept == 0 {
		return fmt.Errorf("fec: puncture pattern deletes everything")
	}
	return nil
}

// KeptPerPeriod returns the transmitted bits per pattern period.
func (p PuncturePattern) KeptPerPeriod() int {
	n := 0
	for _, k := range p {
		if k {
			n++
		}
	}
	return n
}

// EffectiveRate returns the code rate after puncturing a mother code of
// rate motherRate.
func (p PuncturePattern) EffectiveRate(motherRate float64) float64 {
	return motherRate * float64(len(p)) / float64(p.KeptPerPeriod())
}

// Rate23FromHalf is the classic puncturing of a rate-1/2 mother code to
// rate 2/3: over two steps (4 coded bits) delete one parity bit.
var Rate23FromHalf = PuncturePattern{true, true, true, false}

// Rate34FromHalf punctures a rate-1/2 mother code to 3/4.
var Rate34FromHalf = PuncturePattern{true, true, true, false, false, true}

// Puncture deletes the masked bits.
func Puncture(coded []byte, p PuncturePattern) []byte {
	out := make([]byte, 0, len(coded)*p.KeptPerPeriod()/len(p)+len(p))
	for i, b := range coded {
		if p[i%len(p)] {
			out = append(out, b)
		}
	}
	return out
}

// Depuncture re-inserts erased positions as zero LLRs so the original
// decoder trellis applies; n is the pre-puncturing coded length.
func Depuncture(llr []float64, p PuncturePattern, n int) []float64 {
	out := make([]float64, n)
	j := 0
	for i := 0; i < n; i++ {
		if p[i%len(p)] {
			if j < len(llr) {
				out[i] = llr[j]
				j++
			}
		}
	}
	return out
}

// PuncturedCode wraps a mother ConvCode with a rate-matching pattern,
// still satisfying the Codec interface.
type PuncturedCode struct {
	mother  *ConvCode
	pattern PuncturePattern
	name    string
}

// NewPunctured builds a punctured codec. It panics on invalid patterns.
func NewPunctured(name string, mother *ConvCode, pattern PuncturePattern) *PuncturedCode {
	if err := pattern.Validate(); err != nil {
		panic(err)
	}
	pat := make(PuncturePattern, len(pattern))
	copy(pat, pattern)
	return &PuncturedCode{mother: mother, pattern: pat, name: name}
}

// UMTSConvTwoThirds returns the K=9 rate-2/3 punctured code.
func UMTSConvTwoThirds() *PuncturedCode { return umtsConvTwoThirds }

// Name implements Codec.
func (c *PuncturedCode) Name() string { return c.name }

// Rate implements Codec.
func (c *PuncturedCode) Rate() float64 { return c.pattern.EffectiveRate(c.mother.Rate()) }

// EncodedLen implements Codec: the punctured length for k info bits.
func (c *PuncturedCode) EncodedLen(k int) int {
	full := c.mother.EncodedLen(k)
	n := 0
	for i := 0; i < full; i++ {
		if c.pattern[i%len(c.pattern)] {
			n++
		}
	}
	return n
}

// Encode implements Codec.
func (c *PuncturedCode) Encode(info []byte) []byte {
	return Puncture(c.mother.Encode(info), c.pattern)
}

// AppendEncode implements Codec.
func (c *PuncturedCode) AppendEncode(dst, info []byte) []byte { return append(dst, c.Encode(info)...) }

// CheckDecodeLen implements Codec: the reconstructed
// mother-code length must cover the mother code's tail.
func (c *PuncturedCode) CheckDecodeLen(n int) error {
	return c.mother.CheckDecodeLen(c.motherLenFor(n))
}

// Decode implements Codec. The caller must pass exactly EncodedLen(k)
// soft values for some k; the mother-code length is reconstructed from
// the pattern.
func (c *PuncturedCode) Decode(llr []float64) []byte { return c.AppendDecode(nil, llr) }

// AppendDecode implements Codec: Decode appended to dst.
func (c *PuncturedCode) AppendDecode(dst []byte, llr []float64) []byte {
	n := c.motherLenFor(len(llr))
	return c.mother.AppendDecode(dst, Depuncture(llr, c.pattern, n))
}

// motherLenFor inverts EncodedLen: the unpunctured length whose kept
// count equals the received length.
func (c *PuncturedCode) motherLenFor(kept int) int {
	period := len(c.pattern)
	perPeriod := c.pattern.KeptPerPeriod()
	full := kept / perPeriod * period
	rem := kept % perPeriod
	for i := 0; rem > 0; i++ {
		if c.pattern[i%period] {
			rem--
		}
		full++
	}
	// Round up to a whole trellis step of the mother code.
	step := len(c.mother.gens)
	if full%step != 0 {
		full += step - full%step
	}
	return full
}
