package fec

import "hash/crc32"

// CRC generators. The paper uses CRCs in two distinct places: inside the
// transmission chain (frame integrity) and as the auto-test of a freshly
// loaded FPGA configuration, whose value is reported to the NCC over
// telemetry (§3.1, §3.2). Both the CCITT 16-bit and the IEEE 32-bit
// polynomials are provided.

// CRC16CCITT computes the CRC-16/CCITT-FALSE checksum (poly 0x1021,
// init 0xFFFF, no reflection, no final xor) over data.
func CRC16CCITT(data []byte) uint16 {
	crc := uint16(0xFFFF)
	for _, b := range data {
		crc ^= uint16(b) << 8
		for i := 0; i < 8; i++ {
			if crc&0x8000 != 0 {
				crc = crc<<1 ^ 0x1021
			} else {
				crc <<= 1
			}
		}
	}
	return crc
}

// CRC32IEEE computes the CRC-32 (poly 0xEDB88320 reflected, init ^0,
// final ^0) checksum over data, hash/crc32's IEEE checksum.
func CRC32IEEE(data []byte) uint32 { return crc32.ChecksumIEEE(data) }

// AppendCRC16 returns data with its big-endian CRC-16/CCITT appended.
func AppendCRC16(data []byte) []byte {
	crc := CRC16CCITT(data)
	return append(append([]byte{}, data...), byte(crc>>8), byte(crc))
}

// CheckCRC16 verifies a frame produced by AppendCRC16 and returns the
// payload and true on success.
func CheckCRC16(frame []byte) ([]byte, bool) {
	if len(frame) < 2 {
		return nil, false
	}
	payload := frame[:len(frame)-2]
	want := uint16(frame[len(frame)-2])<<8 | uint16(frame[len(frame)-1])
	return payload, CRC16CCITT(payload) == want
}
