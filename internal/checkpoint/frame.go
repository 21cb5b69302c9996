package checkpoint

import (
	"encoding/binary"
	"fmt"
)

// Frame is the envelope every durable record in this repository shares:
//
//	magic | uvarint version | u32be body length | body | u64be FNV-1a(body)
//
// Checkpoints use it with magic "WBCK"; persisted job specs use it with
// their own magic and version. Open refuses another version with an error
// wrapping ErrVersion and every structural fault (bad magic, truncation,
// length mismatch, hash mismatch) with one wrapping ErrCorrupt; it never
// panics on malformed input. The body length is capped well above any
// realistic record so a corrupt header cannot drive a huge allocation.
type Frame struct {
	Magic   string
	Version uint64
	// ErrVersion and ErrCorrupt are the sentinels Open's errors wrap.
	ErrVersion, ErrCorrupt error
}

// stateFrame frames encoded checkpoints.
var stateFrame = Frame{Magic: magic, Version: Version, ErrVersion: ErrCheckpointVersion, ErrCorrupt: ErrCorrupt}

// headerLen is the byte length of f's header.
func (f Frame) headerLen() int {
	var v [binary.MaxVarintLen64]byte
	return len(f.Magic) + binary.PutUvarint(v[:], f.Version) + 4
}

// Start appends the frame header to dst with a placeholder body length.
// Append the body right after it, then finish the frame with Seal.
func (f Frame) Start(dst []byte) []byte {
	dst = append(dst, f.Magic...)
	dst = binary.AppendUvarint(dst, f.Version)
	return append(dst, 0, 0, 0, 0)
}

// Seal finishes a frame that Start began at b[0]: it patches in the body
// length and appends the hash trailer.
func (f Frame) Seal(b []byte) ([]byte, error) {
	at := f.headerLen()
	body := b[at:]
	if len(body) > maxBody {
		return nil, fmt.Errorf("checkpoint: frame body %d bytes exceeds cap %d", len(body), maxBody)
	}
	binary.BigEndian.PutUint32(b[at-4:], uint32(len(body)))
	return binary.BigEndian.AppendUint64(b, fnv1a(body)), nil
}

// Open checks one whole frame and returns its body, which aliases data.
func (f Frame) Open(data []byte) ([]byte, error) {
	off, blen, err := f.header(data)
	if err != nil {
		return nil, err
	}
	if len(data) != off+blen+8 {
		return nil, f.corrupt("frame length mismatch: %d body bytes declared, %d present", blen, len(data)-off-8)
	}
	body := data[off : off+blen]
	if fnv1a(body) != binary.BigEndian.Uint64(data[off+blen:]) {
		return nil, f.corrupt("body hash mismatch")
	}
	return body, nil
}

// header checks the frame header at the start of data and returns its
// length and the declared body length.
func (f Frame) header(data []byte) (n, blen int, err error) {
	if len(data) < len(f.Magic) || string(data[:len(f.Magic)]) != f.Magic {
		return 0, 0, f.corrupt("bad magic")
	}
	ver, vn := binary.Uvarint(data[len(f.Magic):])
	if vn <= 0 {
		return 0, 0, f.corrupt("bad version varint")
	}
	if ver != f.Version {
		return 0, 0, fmt.Errorf("%w: got %d, want %d", f.ErrVersion, ver, f.Version)
	}
	n = len(f.Magic) + vn + 4
	if len(data) < n {
		return 0, 0, f.corrupt("truncated header")
	}
	blen = int(binary.BigEndian.Uint32(data[n-4:]))
	if blen > maxBody {
		return 0, 0, f.corrupt("body length %d exceeds cap %d", blen, maxBody)
	}
	return n, blen, nil
}

func (f Frame) corrupt(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{f.ErrCorrupt}, args...)...)
}
