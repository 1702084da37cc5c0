// Package wire is the wiretag golden fixture: a miniature wire package
// whose tag constants are each missing exactly one of the four coverage
// obligations (binary encode, binary decode, Type() struct mapping, fuzz
// seed).
package wire

import "fmt"

// MsgType is the tag type the analyzer keys on.
type MsgType uint8

const (
	TagFull     MsgType = iota + 1
	TagNoBinEnc         // want `wire tag TagNoBinEnc: not covered by the binary-codec Encode path`
	TagNoBinDec         // want `wire tag TagNoBinDec: not covered by the binary-codec Decode path`
	TagNoStruct         // want `wire tag TagNoStruct: not covered by the Type\(\) method of a message struct`
	TagNoFuzz           // want `wire tag TagNoFuzz: not covered by the FuzzWireDecode seed \(NoFuzzMsg\)`
	//wiretag:allow reserved for the v2 handshake; no codec support yet
	TagAllowed
)

// Message is the envelope interface.
type Message interface{ Type() MsgType }

type FullMsg struct{ V uint64 }

func (FullMsg) Type() MsgType { return TagFull }

type NoBinEncMsg struct{}

func (NoBinEncMsg) Type() MsgType { return TagNoBinEnc }

type NoBinDecMsg struct{}

func (NoBinDecMsg) Type() MsgType { return TagNoBinDec }

type NoFuzzMsg struct{}

func (NoFuzzMsg) Type() MsgType { return TagNoFuzz }

// binaryCodec roots the binary encode/decode reachability walks.
type binaryCodec struct{}

func (binaryCodec) Encode(m Message) ([]byte, error) { return appendMessage(nil, m) }

// appendMessage deliberately omits TagNoBinEnc.
func appendMessage(buf []byte, m Message) ([]byte, error) {
	switch t := m.Type(); t {
	case TagFull, TagNoBinDec, TagNoStruct, TagNoFuzz:
		return append(buf, byte(t)), nil
	}
	return nil, fmt.Errorf("unknown tag %d", m.Type())
}

func (binaryCodec) Decode(b []byte) (Message, error) { return decodeFrame(b) }

// decodeFrame deliberately omits TagNoBinDec.
func decodeFrame(b []byte) (Message, error) {
	if len(b) == 0 {
		return nil, fmt.Errorf("short frame")
	}
	switch MsgType(b[0]) {
	case TagFull:
		return FullMsg{}, nil
	case TagNoBinEnc:
		return NoBinEncMsg{}, nil
	case TagNoStruct:
		return nil, fmt.Errorf("tag reserved")
	case TagNoFuzz:
		return NoFuzzMsg{}, nil
	}
	return nil, fmt.Errorf("unknown tag %d", b[0])
}

// orphan references TagNoBinEnc and TagNoBinDec but is reachable from no
// codec entry method, so it must not count as coverage of either path.
func orphan(buf []byte) []byte {
	return append(buf, byte(TagNoBinEnc), byte(TagNoBinDec))
}
