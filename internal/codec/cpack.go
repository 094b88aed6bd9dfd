package codec

import (
	"encoding/binary"
	"fmt"
)

// CPack implements a small C-Pack variant (Chen, Wong & Pai, TVLSI
// 2010): each 32-bit word is encoded by the cheapest of six pattern
// codes, four of which reference a 16-entry FIFO dictionary of
// recently seen words. The dictionary starts empty per line and is
// rebuilt identically by the decoder, so lines stay independently
// decodable.
//
//	code  bits                      meaning                          push
//	zzzz  00                  (2)   zero word                        -
//	xxxx  01 + word           (34)  literal, no pattern matched      yes
//	mmmm  10 + idx            (6)   full 32-bit dictionary match     -
//	mmxx  1100 + idx + low16  (24)  upper halfword matches entry     yes
//	zzzx  1101 + low8         (12)  word with only the low byte set  yes*
//	mmmx  1110 + idx + low8   (16)  upper 24 bits match entry        yes
//
// (*zzzx does not push in this variant: narrow immediates recur via
// zzzx itself at the same cost as mmmm+2, keeping the dictionary for
// wide words.) The encoder always picks the cheapest applicable code,
// breaking dictionary-index ties toward the lowest slot; the strict
// decoder re-derives that choice for every word and rejects any
// stream that is not the canonical encoding.
type CPack struct{}

// cpDictSize is the FIFO dictionary capacity in words.
const cpDictSize = 16

// cpCode identifies one C-Pack word encoding.
type cpCode uint8

const (
	cpZZZZ cpCode = iota
	cpXXXX
	cpMMMM
	cpMMXX
	cpZZZX
	cpMMMX
)

// cpBits is the total encoded size of each code (prefix + payload).
var cpBits = [...]int{cpZZZZ: 2, cpXXXX: 34, cpMMMM: 6, cpMMXX: 24, cpZZZX: 12, cpMMMX: 16}

// cpDict is the FIFO dictionary. Slot indices are stable (the FIFO
// overwrites in ring order rather than shifting), so encoder and
// decoder agree on every idx payload.
type cpDict struct {
	words [cpDictSize]uint32
	n     int // valid entries
	head  int // next slot to overwrite
}

func (d *cpDict) push(w uint32) {
	d.words[d.head] = w
	d.head = (d.head + 1) % cpDictSize
	if d.n < cpDictSize {
		d.n++
	}
}

// choose returns the canonical (cheapest, lowest-index) code for w
// against the current dictionary.
func (d *cpDict) choose(w uint32) (cpCode, int) {
	if w == 0 {
		return cpZZZZ, 0
	}
	for i := 0; i < d.n; i++ {
		if d.words[i] == w {
			return cpMMMM, i
		}
	}
	if w&0xFFFFFF00 == 0 {
		return cpZZZX, 0
	}
	for i := 0; i < d.n; i++ {
		if d.words[i]>>8 == w>>8 {
			return cpMMMX, i
		}
	}
	for i := 0; i < d.n; i++ {
		if d.words[i]>>16 == w>>16 {
			return cpMMXX, i
		}
	}
	return cpXXXX, 0
}

// pushes reports whether code c inserts its word into the dictionary.
func (c cpCode) pushes() bool {
	return c == cpXXXX || c == cpMMXX || c == cpMMMX
}

// compressedBits is the size-only dry run: the exact encoded bit count
// for line, without materializing the stream.
func (CPack) compressedBits(line []byte) int {
	var d cpDict
	bits := 0
	for i := 0; i < LineSize; i += 4 {
		w := binary.LittleEndian.Uint32(line[i:])
		c, _ := d.choose(w)
		bits += cpBits[c]
		if c.pushes() {
			d.push(w)
		}
	}
	return bits
}

// Name returns the registry key.
func (CPack) Name() string { return "cpack" }

// CompressedSizeSegments returns the C-Pack size of the line in
// segments.
func (c CPack) CompressedSizeSegments(line []byte) int {
	mustLine(line)
	return segsForBits(c.compressedBits(line))
}

// AppendEncode appends the canonical C-Pack bitstream of line to dst.
func (c CPack) AppendEncode(dst, line []byte) ([]byte, int) {
	mustLine(line)
	segs := segsForBits(c.compressedBits(line))
	if segs == MaxSegments {
		return append(dst, line...), MaxSegments
	}
	start := len(dst)
	bw := bitWriter{buf: dst}
	var d cpDict
	for i := 0; i < LineSize; i += 4 {
		w := binary.LittleEndian.Uint32(line[i:])
		code, idx := d.choose(w)
		switch code {
		case cpZZZZ:
			bw.write(0b00, 2)
		case cpXXXX:
			bw.write(0b01, 2)
			bw.write(w, 32)
		case cpMMMM:
			bw.write(0b10, 2)
			bw.write(uint32(idx), 4)
		case cpMMXX:
			bw.write(0b1100, 4)
			bw.write(uint32(idx), 4)
			bw.write(w&0xFFFF, 16)
		case cpZZZX:
			bw.write(0b1101, 4)
			bw.write(w&0xFF, 8)
		case cpMMMX:
			bw.write(0b1110, 4)
			bw.write(uint32(idx), 4)
			bw.write(w&0xFF, 8)
		}
		if code.pushes() {
			d.push(w)
		}
	}
	return padSegments(bw.buf, start, segs), segs
}

// DecodeInto strictly decodes a C-Pack stream. Because the decoder
// rebuilds the same dictionary, it can re-derive the canonical code
// for every reconstructed word and reject any stream that used a
// different (non-canonical) one; it then requires the total bit count
// to land on exactly the claimed segment count with zero padding.
func (c CPack) DecodeInto(dst, enc []byte, segs int) error {
	if raw, err := beginDecode(c, dst, enc, segs); raw || err != nil {
		return err
	}
	dst = dst[:LineSize]
	br := bitReader{buf: enc[:segs*SegmentSize]}
	var d cpDict
	for i := 0; i < LineSize; i += 4 {
		code, idx, w, err := cpReadWord(&br, &d)
		if err != nil {
			return err
		}
		wantCode, wantIdx := d.choose(w)
		if wantCode != code || wantIdx != idx {
			return fmt.Errorf("cpack: word %d uses non-canonical code %d/idx %d (canonical %d/%d)",
				i/4, code, idx, wantCode, wantIdx)
		}
		if code.pushes() {
			d.push(w)
		}
		binary.LittleEndian.PutUint32(dst[i:], w)
	}
	bits := int(br.nbit)
	if want := segsForBits(bits); want != segs {
		return fmt.Errorf("cpack: segment count %d disagrees with the line's compressed size %d", segs, want)
	}
	return checkZeroPadding("cpack", enc, bits, segs)
}

// cpReadWord reads one codeword and reconstructs its 32-bit word
// against the current dictionary state.
func cpReadWord(br *bitReader, d *cpDict) (cpCode, int, uint32, error) {
	p, err := br.read(2)
	if err != nil {
		return 0, 0, 0, err
	}
	switch p {
	case 0b00:
		return cpZZZZ, 0, 0, nil
	case 0b01:
		w, err := br.read(32)
		return cpXXXX, 0, w, err
	case 0b10:
		idx, err := br.read(4)
		if err != nil {
			return 0, 0, 0, err
		}
		if int(idx) >= d.n {
			return 0, 0, 0, fmt.Errorf("cpack: dictionary index %d out of range (%d entries)", idx, d.n)
		}
		return cpMMMM, int(idx), d.words[idx], nil
	}
	q, err := br.read(2)
	if err != nil {
		return 0, 0, 0, err
	}
	switch q {
	case 0b00: // mmxx
		idx, err := br.read(4)
		if err != nil {
			return 0, 0, 0, err
		}
		if int(idx) >= d.n {
			return 0, 0, 0, fmt.Errorf("cpack: dictionary index %d out of range (%d entries)", idx, d.n)
		}
		low, err := br.read(16)
		return cpMMXX, int(idx), d.words[idx]&0xFFFF0000 | low, err
	case 0b01: // zzzx
		low, err := br.read(8)
		return cpZZZX, 0, low, err
	case 0b10: // mmmx
		idx, err := br.read(4)
		if err != nil {
			return 0, 0, 0, err
		}
		if int(idx) >= d.n {
			return 0, 0, 0, fmt.Errorf("cpack: dictionary index %d out of range (%d entries)", idx, d.n)
		}
		low, err := br.read(8)
		return cpMMMX, int(idx), d.words[idx]&^0xFF | low, err
	default:
		return 0, 0, 0, fmt.Errorf("cpack: invalid prefix 1111")
	}
}

// DecompressionCycles: the serial dictionary pipeline is the slow end
// of the zoo — 8 cycles (Chen et al. report ~2 words/cycle plus
// pipeline fill for a 16-word line).
func (CPack) DecompressionCycles() float64 { return 8 }
