// Package middleware is a type stub for the poolalias golden tests: the
// Object dispatch shape, signature-compatible with the real package.
package middleware

import "repro/internal/codec"

// Reply delivers the outcome of an RPC dispatch.
type Reply func(result []byte, err error)

// ObjectFunc adapts a function to the Object interface.
type ObjectFunc func(op []byte, args codec.MsgView, reply Reply)

// Dispatch implements Object.
func (f ObjectFunc) Dispatch(op []byte, args codec.MsgView, reply Reply) { f(op, args, reply) }
