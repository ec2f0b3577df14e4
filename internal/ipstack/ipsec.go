package ipstack

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"slices"
)

// SecurityAssociation is an ESP-style transform: AES-CTR confidentiality
// plus a truncated HMAC-SHA256 integrity tag, keyed symmetrically at the
// NCC and on board. The paper: "Ipsec: defined for IP security purposes,
// a ciphering code is performed on-board (it may be realized with FPGA
// and so possibly itself reconfigurable)."
type SecurityAssociation struct {
	block  cipher.Block
	macKey []byte
	seq    uint64

	// Replayed counts packets rejected by the anti-replay check.
	Replayed int
	highest  uint64
}

// espTagLen is the truncated ICV length.
const espTagLen = 12

// NewSA creates a security association from a 16/24/32-byte cipher key
// and a MAC key.
func NewSA(cipherKey, macKey []byte) (*SecurityAssociation, error) {
	block, err := aes.NewCipher(cipherKey)
	if err != nil {
		return nil, err
	}
	return &SecurityAssociation{block: block, macKey: slices.Clone(macKey)}, nil
}

// Encapsulate wraps an inner packet in an ESP packet: the payload is the
// sequence number, the encrypted inner datagram, and the integrity tag.
func (sa *SecurityAssociation) Encapsulate(inner *Packet) (*Packet, error) {
	sa.seq++
	plain := inner.Marshal()
	ct := make([]byte, len(plain))
	sa.ctr(sa.seq, plain, ct)

	payload := append(binary.BigEndian.AppendUint64(make([]byte, 0, 8+len(ct)), sa.seq), ct...)
	payload = append(payload, sa.tag(payload)...)

	return &Packet{Src: inner.Src, Dst: inner.Dst, Proto: ProtoESP, TTL: inner.TTL, Payload: payload}, nil
}

// Decapsulate verifies and decrypts an ESP packet, returning the inner
// datagram.
func (sa *SecurityAssociation) Decapsulate(outer *Packet) (*Packet, error) {
	if outer.Proto != ProtoESP {
		return nil, errors.New("ipsack: not an ESP packet")
	}
	if len(outer.Payload) < 8+espTagLen {
		return nil, errors.New("ipstack: ESP payload too short")
	}
	body := outer.Payload[:len(outer.Payload)-espTagLen]
	tag := outer.Payload[len(outer.Payload)-espTagLen:]
	if !hmac.Equal(tag, sa.tag(body)) {
		return nil, errors.New("ipstack: ESP integrity check failed")
	}
	seq := binary.BigEndian.Uint64(body[:8])
	if seq <= sa.highest {
		sa.Replayed++
		return nil, errors.New("ipstack: ESP replay")
	}
	sa.highest = seq
	pt := make([]byte, len(body)-8)
	sa.ctr(seq, body[8:], pt)
	return UnmarshalPacket(pt)
}

// ctr runs AES-CTR keyed by the sequence number as nonce.
func (sa *SecurityAssociation) ctr(seq uint64, in, out []byte) {
	iv := make([]byte, aes.BlockSize)
	binary.BigEndian.PutUint64(iv[:8], seq)
	cipher.NewCTR(sa.block, iv).XORKeyStream(out, in)
}

func (sa *SecurityAssociation) tag(body []byte) []byte {
	m := hmac.New(sha256.New, sa.macKey)
	m.Write(body)
	return m.Sum(nil)[:espTagLen]
}

// PairedSAs returns two associations sharing keys — one for each end of
// the link. (Each direction needs its own sequence space, so callers use
// one SA per node; both accept traffic protected by the shared keys.)
func PairedSAs(cipherKey, macKey []byte) (*SecurityAssociation, *SecurityAssociation, error) {
	a, err := NewSA(cipherKey, macKey)
	if err != nil {
		return nil, nil, err
	}
	b, err := NewSA(cipherKey, macKey)
	if err != nil {
		return nil, nil, err
	}
	return a, b, nil
}
