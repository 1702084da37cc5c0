package wire

import "testing"

// FuzzWireDecode seeds every message except NoFuzzMsg, whose tag the
// analyzer must flag.
func FuzzWireDecode(f *testing.F) {
	var bin binaryCodec
	for _, m := range []Message{FullMsg{}, NoBinEncMsg{}, NoBinDecMsg{}} {
		if b, err := bin.Encode(m); err == nil {
			f.Add(b)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var bin binaryCodec
		_, _ = bin.Decode(data)
	})
}
