package codec

import "fmt"

// Message is a materialized named record: the boxed form of the wire
// shape every PDU and middleware message shares (a name followed by a
// field record). Production code reads that shape through MsgView and
// writes it through compiled schemas; Message remains for
// middleware.Platform.Publish and topic sinks, and as the test oracle.
type Message struct {
	Name   string
	Fields Record
}

// NewMessage returns a message with an initialized (possibly empty) field
// map.
func NewMessage(name string, fields Record) Message {
	if fields == nil {
		fields = Record{}
	}
	return Message{Name: name, Fields: fields}
}

// AppendMessage appends the canonical wire form of m to buf — the name
// as a string value followed by the fields as a record — and returns
// the extended slice. For fixed message shapes, a compiled Schema
// encodes the same bytes without building the Fields map at all.
func AppendMessage(buf []byte, m Message) ([]byte, error) {
	buf, err := Append(buf, m.Name)
	if err != nil {
		return nil, fmt.Errorf("encode message name: %w", err)
	}
	fields := m.Fields
	if fields == nil {
		fields = Record{}
	}
	buf, err = Append(buf, fields)
	if err != nil {
		return nil, fmt.Errorf("encode message %q: %w", m.Name, err)
	}
	return buf, nil
}

// ToStringSlice converts a decoded List of strings back into []string.
func ToStringSlice(v Value) ([]string, error) {
	list, ok := v.([]Value)
	if !ok {
		return nil, fmt.Errorf("codec: %T is not a list", v)
	}
	out := make([]string, len(list))
	for i, elem := range list {
		s, ok := elem.(string)
		if !ok {
			return nil, fmt.Errorf("codec: list element %d is %T, not string", i, elem)
		}
		out[i] = s
	}
	return out, nil
}
