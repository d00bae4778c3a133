package wire

import (
	"bufio"
	"bytes"
	"testing"
)

// FuzzFrameDecode reads arbitrary bytes as a frame and decodes its payload
// as the frame's kind says: nothing may panic, and a frame or payload that
// decodes must encode back to the same bytes. A mutated frame rarely
// keeps a valid checksum, so the input is also decoded unframed, as a
// kind byte and a payload: that lets mutations reach the decoders.
func FuzzFrameDecode(f *testing.F) {
	for _, set := range []map[string]message{validMessages(), hostileMessages()} {
		for _, m := range set {
			f.Add(AppendFrame(nil, m.kind, m.payload))
			f.Add(append([]byte{m.kind}, m.payload...))
		}
	}
	f.Add(AppendFrame(nil, MsgHello, []byte{ProtoVersion}))
	f.Add(AppendFrame(nil, MsgCopyEnd, nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		decode := func(kind byte, payload []byte) {
			// A COPY batch's width is set by its MsgCopyBegin, not the frame.
			for width := 1; width <= 4; width++ {
				out, err := reencode(kind, width, payload)
				if err == nil && !bytes.Equal(out, payload) {
					t.Fatalf("kind 0x%02x width %d: payload %x re-encodes to %x", kind, width, payload, out)
				}
				if kind != MsgCopyData {
					break
				}
			}
		}
		if kind, payload, err := ReadFrame(bufio.NewReader(bytes.NewReader(data))); err == nil {
			if frame := AppendFrame(nil, kind, payload); !bytes.HasPrefix(data, frame) {
				t.Fatalf("frame re-encodes to %x, read from %x", frame, data)
			}
			decode(kind, payload)
		}
		if len(data) > 0 {
			decode(data[0], data[1:])
		}
	})
}
