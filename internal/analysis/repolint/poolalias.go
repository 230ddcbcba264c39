package repolint

import (
	"go/ast"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
)

// Poolalias enforces the pooled-buffer aliasing contracts documented in
// DESIGN.md §1.2–1.3 and at the top of internal/codec/view.go:
//
//   - A []byte received through a network.Handler or protocol.Receiver
//     parameter, the op parameter of a middleware.Object dispatch, or a
//     codec.MsgView borrowing accessor (Name/Str/Bytes/Raw) aliases a
//     pooled delivery buffer. It is valid only until the function
//     returns, so it must not be stored in a struct field or global,
//     sent on a channel, captured by a goroutine closure, or returned —
//     retain with an explicit copy (append/copy/string). Check:
//     poolalias.
//   - Every codec.GetBuffer result must reach a Release on some path in
//     the same function, or be handed off (passed, stored, returned,
//     sent, or captured — APIs that receive a *codec.Buffer take
//     ownership). A buffer that is neither released nor handed off is
//     leaked from the pool. Check: bufleak.
//
// The analysis is function-local and deliberately conservative: it
// reports only retention through the specific sinks above, so a clean
// report is not a proof, but every report is a contract violation (or
// carries an //repolint:allow with its justification).
var Poolalias = &analysis.Analyzer{
	Name:     "poolalias",
	Doc:      "enforce pooled-buffer aliasing contracts: no retention of borrowed []byte, GetBuffer must be released or handed off (checks: poolalias, bufleak)",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      runPoolalias,
}

// Paths of the packages whose types define the borrowing contracts.
const (
	codecPath      = "repro/internal/codec"
	middlewarePath = "repro/internal/middleware"
	networkPath    = "repro/internal/network"
	protocolPath   = "repro/internal/protocol"
)

// msgViewBorrowers are the MsgView accessors documented to return
// slices aliasing the input buffer (the materializing accessors
// Fields/Value/Strings copy and are exempt).
var msgViewBorrowers = map[string]bool{
	"Name": true, "Str": true, "Bytes": true, "Raw": true,
}

func runPoolalias(pass *analysis.Pass) (any, error) {
	allows := CollectAllows(pass)
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil), (*ast.FuncLit)(nil)}, func(n ast.Node) {
		var body *ast.BlockStmt
		var sig *types.Signature
		switch fn := n.(type) {
		case *ast.FuncDecl:
			body = fn.Body
			if obj, ok := pass.TypesInfo.Defs[fn.Name].(*types.Func); ok {
				sig, _ = obj.Type().(*types.Signature)
			}
		case *ast.FuncLit:
			body = fn.Body
			sig, _ = pass.TypesInfo.TypeOf(fn).(*types.Signature)
		}
		if body == nil || sig == nil || isTestFile(pass.Fset, n.Pos()) {
			return
		}
		borrowed := borrowedParams(sig)
		collectViewBorrows(pass, body, borrowed)
		if len(borrowed) > 0 {
			checkRetention(pass, allows, body, borrowed)
		}
		checkBufferLeaks(pass, allows, body)
	})
	return nil, nil
}

// borrowedParams returns the []byte parameter objects of fn when its
// signature is one of the borrowing callback shapes:
//
//	func(src network.NodeID, payload []byte)                    — network.Handler
//	func(src protocol.Addr, pdu []byte)                         — protocol.Receiver
//	func(op []byte, args codec.MsgView, reply middleware.Reply) — Object.Dispatch / ObjectFunc
//
// Matching is structural (parameter types, not the named function
// type), so implementations are caught wherever they are declared.
func borrowedParams(sig *types.Signature) map[types.Object]bool {
	borrowed := make(map[types.Object]bool)
	p := sig.Params()
	handlerShape := p.Len() == 2 && sig.Results().Len() == 0 && isByteSlice(p.At(1).Type()) &&
		(isNamed(p.At(0).Type(), networkPath, "NodeID") || isNamed(p.At(0).Type(), protocolPath, "Addr"))
	dispatchShape := p.Len() == 3 && sig.Results().Len() == 0 && isByteSlice(p.At(0).Type()) &&
		isNamed(p.At(1).Type(), codecPath, "MsgView") && isNamed(p.At(2).Type(), middlewarePath, "Reply")
	if handlerShape {
		borrowed[p.At(1)] = true
	}
	if dispatchShape {
		borrowed[p.At(0)] = true
	}
	// Also mark SlotHandler-shaped callbacks: func(src network.Slot, payload []byte).
	if p.Len() == 2 && sig.Results().Len() == 0 && isByteSlice(p.At(1).Type()) && isNamed(p.At(0).Type(), networkPath, "Slot") {
		borrowed[p.At(1)] = true
	}
	return borrowed
}

// collectViewBorrows adds objects bound to the result of a borrowing
// MsgView accessor call: `b, ok := view.Str("x")` marks b. Nested
// function literals are skipped — each literal gets its own analysis
// visit with its own borrow set.
func collectViewBorrows(pass *analysis.Pass, body *ast.BlockStmt, borrowed map[types.Object]bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return true
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
		if !ok || !msgViewBorrowers[fn.Name()] {
			return true
		}
		sig, ok := fn.Type().(*types.Signature)
		if !ok || sig.Recv() == nil || !isNamed(deref(sig.Recv().Type()), codecPath, "MsgView") {
			return true
		}
		if id, ok := as.Lhs[0].(*ast.Ident); ok {
			if obj := pass.TypesInfo.ObjectOf(id); obj != nil {
				borrowed[obj] = true
			}
		}
		return true
	})
}

// checkRetention reports each sink through which a borrowed []byte
// escapes the function without a copy.
func checkRetention(pass *analysis.Pass, allows *Allows, body *ast.BlockStmt, borrowed map[types.Object]bool) {
	refersToBorrowed := func(e ast.Expr) (types.Object, bool) {
		return findBorrowedRef(pass.TypesInfo, e, borrowed)
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				obj, ok := refersToBorrowed(rhs)
				if !ok || i >= len(n.Lhs) {
					continue
				}
				switch lhs := n.Lhs[i].(type) {
				case *ast.SelectorExpr:
					allows.Report(pass, n.Pos(), "poolalias",
						"%q aliases a pooled delivery buffer and must not be stored in field %q; retain with an explicit copy (append/copy/string)", obj.Name(), lhs.Sel.Name)
				case *ast.Ident:
					if v, ok := pass.TypesInfo.ObjectOf(lhs).(*types.Var); ok && v.Parent() == v.Pkg().Scope() {
						allows.Report(pass, n.Pos(), "poolalias",
							"%q aliases a pooled delivery buffer and must not be stored in package variable %q; retain with an explicit copy", obj.Name(), v.Name())
					}
				case *ast.IndexExpr:
					allows.Report(pass, n.Pos(), "poolalias",
						"%q aliases a pooled delivery buffer and must not be stored in a container; retain with an explicit copy", obj.Name())
				}
			}
		case *ast.SendStmt:
			if obj, ok := refersToBorrowed(n.Value); ok {
				allows.Report(pass, n.Pos(), "poolalias",
					"%q aliases a pooled delivery buffer and must not be sent on a channel; retain with an explicit copy", obj.Name())
			}
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if obj, ok := refersToBorrowed(res); ok {
					allows.Report(pass, n.Pos(), "poolalias",
						"%q aliases a pooled delivery buffer and must not be returned; retain with an explicit copy", obj.Name())
				}
			}
		case *ast.GoStmt:
			for _, arg := range n.Call.Args {
				if obj, ok := refersToBorrowed(arg); ok {
					allows.Report(pass, n.Pos(), "poolalias",
						"%q aliases a pooled delivery buffer and must not be passed to a goroutine; retain with an explicit copy", obj.Name())
				}
			}
		case *ast.FuncLit:
			// A closure capturing a borrowed slice may run after the
			// buffer is recycled. The immediately-invoked form
			// func(){...}() runs before return and is exempted by the
			// caller check below; anything else is a retention risk.
			if isIIFE(body, n) {
				return true
			}
			ast.Inspect(n.Body, func(m ast.Node) bool {
				id, ok := m.(*ast.Ident)
				if !ok {
					return true
				}
				if obj := pass.TypesInfo.ObjectOf(id); obj != nil && borrowed[obj] {
					allows.Report(pass, id.Pos(), "poolalias",
						"%q aliases a pooled delivery buffer and must not be captured by an escaping closure; retain with an explicit copy", obj.Name())
				}
				return true
			})
			return false // reported once; don't re-descend via outer walk sinks
		}
		return true
	})
}

// findBorrowedRef reports whether expr references a borrowed object
// outside of a sanctioned copying construct. Occurrences inside
// append(dst, b...) spread position, copy(dst, b), string(b), and
// scalar element reads b[i] are copies and do not count; append(dst, b)
// without the ellipsis stores the slice header itself and does.
func findBorrowedRef(info *types.Info, expr ast.Expr, borrowed map[types.Object]bool) (types.Object, bool) {
	var found types.Object
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		if found != nil {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok {
				if b, ok := info.Uses[id].(*types.Builtin); ok {
					switch b.Name() {
					case "append":
						// append(dst, b...) spreads b's bytes into dst:
						// a copy. append(b, x) aliases b's array, and
						// append(dst, b) (element append, e.g. into a
						// [][]byte) stores the header: both alias.
						if n.Ellipsis.IsValid() && len(n.Args) > 0 {
							ast.Inspect(n.Args[0], walk)
							return false
						}
					case "copy", "len", "cap":
						return false
					}
				}
			}
			// string(b) conversion copies.
			if tv, ok := info.Types[n.Fun]; ok && tv.IsType() {
				if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
					return false
				}
			}
		case *ast.IndexExpr:
			// b[i] reads one element by value: not an alias. (A
			// sub-slice b[i:j] is a SliceExpr and still aliases.)
			if id, ok := n.X.(*ast.Ident); ok {
				if obj := info.ObjectOf(id); obj != nil && borrowed[obj] {
					return false
				}
			}
		case *ast.Ident:
			if obj := info.ObjectOf(n); obj != nil && borrowed[obj] {
				found = obj
			}
		}
		return true
	}
	ast.Inspect(expr, walk)
	return found, found != nil
}

// isIIFE reports whether lit is immediately invoked — the callee of a
// plain call expression within body. A `go func(){…}()` does not
// count: it runs after the caller may have returned the buffer.
// A `defer func(){…}()` does: defers run before the function hands
// control (and the buffer) back to its caller.
func isIIFE(body *ast.BlockStmt, lit *ast.FuncLit) bool {
	goCalls := make(map[*ast.CallExpr]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		if g, ok := n.(*ast.GoStmt); ok {
			goCalls[g.Call] = true
		}
		return true
	})
	iife := false
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && call.Fun == lit && !goCalls[call] {
			iife = true
		}
		return !iife
	})
	return iife
}

// checkBufferLeaks reports codec.GetBuffer results that are neither
// released nor handed off anywhere in the function. Nested function
// literals are skipped — each gets its own analysis visit.
func checkBufferLeaks(pass *analysis.Pass, allows *Allows, body *ast.BlockStmt) {
	info := pass.TypesInfo
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 || len(as.Lhs) != 1 {
			return true
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok || !isPkgFunc(info, call, codecPath, "GetBuffer") {
			return true
		}
		id, ok := as.Lhs[0].(*ast.Ident)
		if !ok || id.Name == "_" {
			allows.Report(pass, as.Pos(), "bufleak",
				"result of codec.GetBuffer is discarded and can never be released")
			return true
		}
		obj := info.ObjectOf(id)
		if obj == nil {
			return true
		}
		if !releasedOrHandedOff(info, body, as, obj) {
			allows.Report(pass, as.Pos(), "bufleak",
				"%q from codec.GetBuffer is neither released nor handed off in this function; add %s.Release() (deferred, or on every path) or pass the buffer to an owner", id.Name, id.Name)
		}
		return true
	})
}

// releasedOrHandedOff scans the function body after the GetBuffer
// assignment for a Release call on obj, or any construct that moves
// the buffer out of this function's hands: appearing in a call
// argument, return value, channel send, closure body, or the
// right-hand side of an assignment to anything other than the buffer's
// own fields. Self-mutation (`buf.B = append(buf.B[:0], …)`) is the
// normal fill pattern and does not count as a handoff, so a buffer
// that is acquired, filled, and then forgotten is still reported.
func releasedOrHandedOff(info *types.Info, body *ast.BlockStmt, get *ast.AssignStmt, obj types.Object) bool {
	ok := false
	ast.Inspect(body, func(n ast.Node) bool {
		if ok || (n != nil && n.End() <= get.End()) {
			return !ok
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if sel, isSel := n.Fun.(*ast.SelectorExpr); isSel && sel.Sel.Name == "Release" {
				if id, isID := sel.X.(*ast.Ident); isID && info.ObjectOf(id) == obj {
					ok = true
					return false
				}
			}
			for _, arg := range n.Args {
				if identUnder(info, arg, obj) {
					ok = true // buffer (or its bytes) given to a callee or builtin
					return false
				}
			}
		case *ast.ReturnStmt, *ast.SendStmt:
			if identUnder(info, n, obj) {
				ok = true
				return false
			}
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if !identUnder(info, rhs, obj) {
					continue
				}
				if i < len(n.Lhs) && isFieldOf(info, n.Lhs[i], obj) {
					// buf.B = …: filling the buffer, not moving it.
					// Keep scanning, but do not descend into this
					// statement (the RHS references obj by design).
					continue
				}
				ok = true // stored somewhere else: ownership moved
				return false
			}
			if identUnder(info, n, obj) {
				// Only self-mutations reference obj here; skip the
				// subtree so the RHS call doesn't read as a handoff.
				selfOnly := true
				for i := range n.Rhs {
					if identUnder(info, n.Rhs[i], obj) && (i >= len(n.Lhs) || !isFieldOf(info, n.Lhs[i], obj)) {
						selfOnly = false
					}
				}
				if selfOnly {
					return false
				}
			}
		case *ast.FuncLit:
			if identUnder(info, n.Body, obj) {
				ok = true // captured: the closure owns the release
				return false
			}
			return false
		}
		return true
	})
	return ok
}

// isFieldOf reports whether e is a selector (or index/slice of a
// selector) rooted at obj, e.g. buf.B or buf.B[:0].
func isFieldOf(info *types.Info, e ast.Expr, obj types.Object) bool {
	for {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			if id, ok := x.X.(*ast.Ident); ok {
				return info.ObjectOf(id) == obj
			}
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return false
		}
	}
}

// identUnder reports whether any identifier below n resolves to obj.
func identUnder(info *types.Info, n ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if id, ok := m.(*ast.Ident); ok && info.ObjectOf(id) == obj {
			found = true
		}
		return !found
	})
	return found
}

// --- small type helpers shared by the suite ---

func isByteSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

// isNamed reports whether t (or its alias target) is the named type
// pkgPath.name.
func isNamed(t types.Type, pkgPath, name string) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath && obj.Name() == name
}

func deref(t types.Type) types.Type {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// isPkgFunc reports whether call invokes the package-level function
// pkgPath.name.
func isPkgFunc(info *types.Info, call *ast.CallExpr, pkgPath, name string) bool {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return false
	}
	return fn.Pkg().Path() == pkgPath && fn.Name() == name
}
