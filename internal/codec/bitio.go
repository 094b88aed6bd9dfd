package codec

import "errors"

// bitWriter and bitReader are the MSB-first bitstream helpers FPC and
// C-Pack use: big-endian within each byte, append-based so reused
// buffers write without allocating.

type bitWriter struct {
	buf  []byte
	nbit uint // bits written by this writer (it starts on a byte boundary)
}

// write appends the low n bits of v, most significant first.
func (bw *bitWriter) write(v uint32, n int) {
	for n > 0 {
		if bw.nbit%8 == 0 {
			bw.buf = append(bw.buf, 0)
		}
		free := 8 - int(bw.nbit%8)
		take := n
		if take > free {
			take = free
		}
		chunk := (v >> uint(n-take)) & (1<<uint(take) - 1)
		bw.buf[len(bw.buf)-1] |= byte(chunk << uint(free-take))
		bw.nbit += uint(take)
		n -= take
	}
}

// bitReader consumes a bitstream produced by bitWriter.
type bitReader struct {
	buf  []byte
	nbit uint
}

var errShortStream = errors.New("codec: truncated bitstream")

func (br *bitReader) read(n int) (uint32, error) {
	var v uint32
	for i := 0; i < n; i++ {
		idx := br.nbit / 8
		if int(idx) >= len(br.buf) {
			return 0, errShortStream
		}
		bit := (br.buf[idx] >> (7 - br.nbit%8)) & 1
		v = v<<1 | uint32(bit)
		br.nbit++
	}
	return v, nil
}
