package wire

import (
	"math/rand"
	"testing"
)

// TestBinaryDecodeNeverPanics feeds the binary decoder random garbage —
// the server decodes frames straight off the radio link, so any byte
// sequence must yield an error, never a panic or a hang.
func TestBinaryDecodeNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 5000; trial++ {
		n := rng.Intn(512)
		data := make([]byte, n)
		rng.Read(data)
		// Half the trials get a valid type tag to reach deeper code paths.
		if n > 0 && trial%2 == 0 {
			data[0] = byte(1 + rng.Intn(5))
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on %d random bytes: %v", n, r)
				}
			}()
			_, _ = Binary.Decode(data)
		}()
	}
}

// TestBinaryDecodeMutatedMessages mutates valid encodings at every byte
// position; decoding must never panic and, where it succeeds, must return
// a structurally sane message.
func TestBinaryDecodeMutatedMessages(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, m := range sampleMessages() {
		valid, err := Binary.Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		for pos := 0; pos < len(valid); pos++ {
			mut := append([]byte(nil), valid...)
			mut[pos] ^= byte(1 + rng.Intn(255))
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("%T: panic mutating byte %d: %v", m, pos, r)
					}
				}()
				msg, err := Binary.Decode(mut)
				if err == nil && msg == nil {
					t.Fatalf("%T: nil message with nil error", m)
				}
			}()
		}
	}
}

// TestCoverFromModelResponseHostileInputs checks that adversarial model
// responses (the client reconstructs covers from network data) are
// rejected cleanly.
func TestCoverFromModelResponseHostileInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 500; trial++ {
		data := make([]byte, 35+rng.Intn(300))
		rng.Read(data)
		data[0] = byte(TypeModelResponse)
		msg, err := Binary.Decode(data)
		if err != nil {
			continue
		}
		resp, ok := msg.(ModelResponse)
		if !ok {
			t.Fatalf("decoded %T from model-response frame", msg)
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic reconstructing cover: %v", r)
				}
			}()
			_, _ = CoverFromModelResponse(resp)
		}()
	}
}
