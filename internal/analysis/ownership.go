package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Payload ownership: ownership of a payload transfers to the receiver on
// Send — Proposals.Send in the propose phase, ApplyContext.Forward for
// reply legs — and the engine recycles every recyclable payload exactly
// once at cycle end. The three ways to break that silently:
//
//   - use-after-send: the sender keeps reading (or worse, mutating) the
//     payload it no longer owns — racing with the handler on another
//     worker, or double-recycling by sending the same pointer twice;
//   - a leaky Recycle: a pointer or slice field that Recycle does not
//     reset pins the previous cycle's data (and anything it references)
//     inside the free list, and a stale alias resurfaces in the next
//     payload handed out;
//   - a retained payload: the receiving handler owns what it was sent only
//     until its cycle ends, when the engine recycles it — a payload
//     pointer, or a slice inside it, stored in the node's state is handed
//     to another node by the free list one cycle later.
//
// The analyzer tracks the sent value's local variable — including plain
// aliases (`q := p`) and through a conversion `(*U)(p)` — positionally: any
// use after the Send or Forward call in the same function is flagged unless
// the variable was reassigned in between.
// Scalar payloads (basic types) are exempt: value semantics make reuse
// harmless. The Recycle rule requires every direct reference-typed field
// (pointer, slice, map, chan, func, interface) of the receiver struct to
// be assigned somewhere in the method body (nil, or s[:0] to keep warm
// capacity), or the whole receiver to be reset with *r = T{...}; and it
// requires the body to call Put on a sim.FreeList with the cache parameter
// and the receiver (or the receiver converted to a type of its shape),
// without which the payload never returns to its list.
//
// The retention rule knows three kinds of received payload: a variable
// bound by asserting the type of a sim.Message parameter's Data, a
// parameter whose type is a pointer to a payload type (one with a Recycle
// method), as in a request-leg helper like Newscast.exchange, and a local
// bound to either or to a conversion `(*U)(p)` of either. Assigning a
// received payload, or a pointer, slice or map reached through it, to
// anything reached through the function's receiver or other parameters,
// or to a package variable, is flagged as retained. Storing it into a
// field or element of a local, or into a composite literal, is flagged as
// forwarded: the local is a payload on its way out, and a net model may
// delay it past the cycle end that recycles the one received. What a store
// takes is looked for through reslices, append's first argument, and the
// first argument of a function of the same package whose result has its
// first parameter's slice type (sized, mergeRuns), which may return it;
// the elements append copies are not. The forward rule: a handler's one
// follow-up is ApplyContext.Forward of the payload it received, or of a
// conversion of it, which takes the slot of the message that brought it.
// Forward of anything else is flagged.
//
// A wholesale reset `*r = T{...}` does not reset a field its literal
// carries back from the receiver, directly (`T{Peer: r.Peer}`) or through
// a local read from it; a `[:0]` reslice is a reset, not a carry.
//
// Two field kinds are exempt from the reset rule. A home-pool
// back-pointer, i.e. a field of type *sim.FreeList[...], must SURVIVE
// Recycle — resetting it would orphan the payload on its next recycle —
// and references only the process-shared pool. A field whose type is a
// type parameter is a generic leg's value, which the sending holder's
// Load overwrites in full before every send: keeping it keeps its
// buffers warm and pins nothing a receiver could see.
var Ownership = &Analyzer{
	Name: "ownership",
	Doc: "flags payload use-after-send (sent-exactly-once contract) and " +
		"Recycle methods that leave reference fields unreset or never Put, and handlers " +
		"that retain a received payload",
	Run: runOwnership,
}

func runOwnership(pass *Pass) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkUseAfterSend(pass, fd)
			checkRecycle(pass, fd)
			checkRetained(pass, fd)
		}
	}
}

// isPayloadSend matches ax.Forward and px.Send calls, returning the
// payload argument and the method's name.
func isPayloadSend(pass *Pass, call *ast.CallExpr) (ast.Expr, string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Send" && sel.Sel.Name != "Forward" || len(call.Args) == 0 {
		return nil, ""
	}
	tv, ok := pass.Info.Types[sel.X]
	if !ok {
		return nil, ""
	}
	if !namedTypeIn(tv.Type, simPackageName, "ApplyContext") && !namedTypeIn(tv.Type, simPackageName, "Proposals") {
		return nil, ""
	}
	return call.Args[len(call.Args)-1], sel.Sel.Name
}

// checkUseAfterSend flags reads or writes of a sent payload variable (or
// an alias of it) after the Send call.
func checkUseAfterSend(pass *Pass, fd *ast.FuncDecl) {
	type send struct {
		end token.Pos
		obj types.Object
	}
	var sends []send
	aliases := map[types.Object]map[types.Object]bool{} // obj -> group (shared map)
	group := func(o types.Object) map[types.Object]bool {
		g, ok := aliases[o]
		if !ok {
			g = map[types.Object]bool{o: true}
			aliases[o] = g
		}
		return g
	}
	// reassigned[obj] lists positions where the variable is wholesale
	// replaced — a use after that point refers to a new payload.
	reassigned := map[types.Object][]token.Pos{}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if payload, _ := isPayloadSend(pass, n); payload != nil {
				if id := rootIdent(ast.Unparen(unconvert(pass, payload))); id != nil {
					if obj := pass.Info.Uses[id]; obj != nil && trackedPayload(obj.Type()) {
						sends = append(sends, send{end: n.End(), obj: obj})
					}
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				lid, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok {
					continue
				}
				lObj := pass.Info.Defs[lid]
				if lObj == nil {
					lObj = pass.Info.Uses[lid]
				}
				if lObj == nil {
					continue
				}
				reassigned[lObj] = append(reassigned[lObj], lid.Pos())
				// Alias tracking: `q := p` / `q = p` joins the groups.
				if len(n.Rhs) == len(n.Lhs) {
					if rid, ok := ast.Unparen(n.Rhs[i]).(*ast.Ident); ok {
						if rObj := pass.Info.Uses[rid]; rObj != nil && trackedPayload(rObj.Type()) {
							g := group(rObj)
							for o := range group(lObj) {
								g[o] = true
								aliases[o] = g
							}
							aliases[lObj] = g
						}
					}
				}
			}
		}
		return true
	})
	if len(sends) == 0 {
		return
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.Info.Uses[id]
		if obj == nil {
			return true
		}
		for _, s := range sends {
			if id.Pos() <= s.end || !group(s.obj)[obj] {
				continue
			}
			// A wholesale reassignment between the send and this use means
			// the variable holds a fresh payload now.
			renewed := false
			for _, rp := range reassigned[obj] {
				if rp > s.end && rp <= id.Pos() {
					renewed = true
					break
				}
			}
			// Note `p = fresh` excuses its own LHS too: the LHS position is
			// recorded as a reassignment at exactly id.Pos(), and a `:=`
			// LHS never appears in Uses at all.
			if renewed {
				continue
			}
			pass.Reportf(id.Pos(), "payload %s used after Send or Forward: ownership transferred to the receiver (sent-exactly-once; a reused pointer double-recycles)", id.Name)
			return true
		}
		return true
	})
}

// trackedPayload reports whether a sent value of this type is worth
// tracking: anything but a plain scalar (basic types have value semantics;
// reusing them after send is harmless).
func trackedPayload(t types.Type) bool {
	if t == nil {
		return false
	}
	_, basic := t.Underlying().(*types.Basic)
	return !basic
}

// checkRecycle enforces the two rules on Recycle(*sim.PayloadCache)
// methods: every direct reference-typed field of the receiver struct must
// be assigned in the body, and the body must hand the receiver, with the
// cache it was given, to a free list's Put.
func checkRecycle(pass *Pass, fd *ast.FuncDecl) {
	if fd.Name.Name != "Recycle" || fd.Recv == nil || len(fd.Recv.List) != 1 {
		return
	}
	if fd.Type.Params.NumFields() != 1 || fd.Type.Results.NumFields() != 0 {
		return
	}
	cacheField := fd.Type.Params.List[0]
	if tv, ok := pass.Info.Types[cacheField.Type]; !ok || !namedTypeIn(tv.Type, simPackageName, "PayloadCache") {
		return
	}
	var cacheObj types.Object
	if len(cacheField.Names) == 1 {
		cacheObj = pass.Info.Defs[cacheField.Names[0]]
	}
	recvField := fd.Recv.List[0]
	tv, ok := pass.Info.Types[recvField.Type]
	if !ok {
		return
	}
	t := tv.Type
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return
	}
	var recvObj types.Object
	if len(recvField.Names) == 1 {
		recvObj = pass.Info.Defs[recvField.Names[0]]
	}
	if recvObj == nil {
		// Unnamed receiver cannot reset anything; report every reference
		// field below via the empty assigned set.
		recvObj = types.NewVar(token.NoPos, nil, "", t)
	}

	isObj := func(e ast.Expr, obj types.Object) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && obj != nil && pass.Info.Uses[id] == obj
	}
	assigned := map[string]bool{}
	// fromRecv holds the receiver and the locals read from it; carried, the
	// fields a wholesale reset's literal takes back from them.
	fromRecv, carried := map[types.Object]bool{recvObj: true}, map[string]bool{}
	fullReset, put := false, false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			// <free list>.Put(<the cache parameter>, <the receiver>)
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Put" && len(call.Args) == 2 {
				if tv, ok := pass.Info.Types[sel.X]; ok && namedTypeIn(tv.Type, simPackageName, "FreeList") {
					put = put || isObj(call.Args[0], cacheObj) && isObj(unconvert(pass, call.Args[1]), recvObj)
				}
			}
			return true
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, lhs := range as.Lhs {
			lhs = ast.Unparen(lhs)
			var rhs ast.Expr
			if len(as.Rhs) == len(as.Lhs) {
				rhs = ast.Unparen(as.Rhs[i])
			}
			if id, ok := lhs.(*ast.Ident); ok && readsFrom(pass, rhs, fromRecv) {
				fromRecv[pass.Info.ObjectOf(id)] = true // home := r.home
			}
			if star, ok := lhs.(*ast.StarExpr); ok {
				if isObj(star.X, recvObj) {
					fullReset = true // *r = T{}
					if cl, ok := rhs.(*ast.CompositeLit); ok {
						for j, elt := range cl.Elts {
							name, val := st.Field(j).Name(), elt
							if kv, ok := elt.(*ast.KeyValueExpr); ok {
								name, val = kv.Key.(*ast.Ident).Name, kv.Value
							}
							carried[name] = carried[name] || readsFrom(pass, val, fromRecv)
						}
					}
				}
				continue
			}
			if sel, ok := lhs.(*ast.SelectorExpr); ok && isObj(sel.X, recvObj) {
				assigned[sel.Sel.Name] = true
			}
		}
		return true
	})
	if !put {
		pass.Reportf(fd.Name.Pos(), "Recycle never hands its receiver and cache to a free list's Put: the payload is dropped and every send allocates a new one")
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if !referenceType(f.Type()) || assigned[f.Name()] || fullReset && !carried[f.Name()] {
			continue
		}
		// Home-pool back-pointers (which must survive the reset) and
		// type-parameter values (which Load overwrites) are exempt.
		if _, param := f.Type().(*types.TypeParam); param || namedTypeIn(f.Type(), simPackageName, "FreeList") {
			continue
		}
		pass.Reportf(fd.Name.Pos(), "Recycle leaves reference field %s unreset: a recycled payload pins the previous cycle's %s (reset slices to [:0], nil everything else)", f.Name(), f.Name())
	}
}

// unconvert returns the operand of a conversion, (*U)(r), and any other
// expression as it is: a header may return to the list of another type of
// its shape.
func unconvert(pass *Pass, e ast.Expr) ast.Expr {
	if call, ok := ast.Unparen(e).(*ast.CallExpr); ok && len(call.Args) == 1 && pass.Info.Types[call.Fun].IsType() {
		return call.Args[0]
	}
	return e
}

// readsFrom reports whether e is rooted at an object in from, unless it
// is a [:0] reslice, which keeps only capacity.
func readsFrom(pass *Pass, e ast.Expr, from map[types.Object]bool) bool {
	if s, ok := e.(*ast.SliceExpr); ok {
		if lit, ok := s.High.(*ast.BasicLit); ok && lit.Value == "0" {
			return false
		}
		e = ast.Unparen(s.X)
	}
	id := rootIdent(e)
	return id != nil && pass.Info.Uses[id] != nil && from[pass.Info.Uses[id]]
}

// referenceType reports whether values of t can alias other memory:
// pointers, slices, maps, chans, funcs and interfaces.
func referenceType(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Signature, *types.Interface:
		return true
	}
	return false
}

// checkRetained flags a handler that stores a received payload, or
// reference-typed data reached through it, where it outlives the call or
// into another payload, and one that forwards anything else.
func checkRetained(pass *Pass, fd *ast.FuncDecl) {
	// Objects that outlive the call when stored through: the receiver and
	// the parameters. Message parameters are where payloads arrive, and
	// payload parameters are received payloads themselves.
	outer := map[types.Object]bool{}
	msgs := map[types.Object]bool{}
	received := map[types.Object]bool{}
	for _, list := range []*ast.FieldList{fd.Recv, fd.Type.Params} {
		if list == nil {
			continue
		}
		for _, f := range list.List {
			for _, name := range f.Names {
				obj := pass.Info.Defs[name]
				if obj == nil {
					continue
				}
				outer[obj] = true
				if namedTypeIn(obj.Type(), simPackageName, "Message") {
					msgs[obj] = true
				}
				if list == fd.Type.Params && recyclable(obj.Type()) {
					received[obj] = true
				}
			}
		}
	}
	// isData matches <message parameter>.Data.(...).
	isData := func(e ast.Expr) bool {
		ta, ok := ast.Unparen(e).(*ast.TypeAssertExpr)
		if !ok {
			return false
		}
		sel, ok := ast.Unparen(ta.X).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Data" {
			return false
		}
		id, ok := ast.Unparen(sel.X).(*ast.Ident)
		return ok && msgs[pass.Info.Uses[id]]
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.TypeSwitchStmt:
			// switch p := msg.Data.(type): one implicit object per clause.
			if as, ok := n.Assign.(*ast.AssignStmt); ok && len(as.Rhs) == 1 && isData(as.Rhs[0]) {
				for _, clause := range n.Body.List {
					if obj := pass.Info.Implicits[clause]; obj != nil {
						received[obj] = true
					}
				}
			}
		case *ast.AssignStmt:
			// p := msg.Data.(*T), p, ok := msg.Data.(*T) and q := (*U)(p).
			if id, ok := n.Lhs[0].(*ast.Ident); ok && len(n.Rhs) == 1 {
				if obj := pass.Info.ObjectOf(id); obj != nil && (isData(n.Rhs[0]) || isReceived(pass, received, n.Rhs[0])) {
					received[obj] = true
				}
			}
		case *ast.CallExpr:
			if payload, verb := isPayloadSend(pass, n); verb == "Forward" && !isReceived(pass, received, payload) {
				pass.Reportf(payload.Pos(), "Forward sends a payload the handler did not receive: forward only the received payload, or a conversion of it")
			}
		}
		return true
	})
	if len(received) == 0 {
		return
	}
	// src returns what of a received payload a stored value may share
	// memory with, and that payload's identifier; nils when nothing.
	src := func(e ast.Expr) (ast.Expr, *ast.Ident) {
		e = aliasSource(pass, e)
		id := rootIdent(e)
		if id == nil || !received[pass.Info.Uses[id]] || !referenceType(pass.Info.TypeOf(e)) {
			return nil, nil
		}
		return e, id
	}
	// forwarded reports a store at pos of id's memory into another payload.
	forwarded := func(pos token.Pos, id *ast.Ident) {
		pass.Reportf(pos, "handler forwards received payload %s into another payload: a net model may delay that one past the cycle end that recycles %s (copy, or Forward %s itself)", id.Name, id.Name, id.Name)
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if cl, ok := n.(*ast.CompositeLit); ok {
			for _, elt := range cl.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					elt = kv.Value
				}
				if e, id := src(elt); e != nil {
					forwarded(elt.Pos(), id)
				}
			}
			return true
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			e, id := src(rhs)
			if e == nil {
				continue
			}
			lhs := ast.Unparen(as.Lhs[i])
			dst := rootIdent(lhs)
			if dst == nil {
				continue
			}
			dObj := pass.Info.ObjectOf(dst)
			_, plain := lhs.(*ast.Ident)
			switch {
			case received[dObj]:
				// Back into a received payload: recycled with it.
			case isPackageLevel(dObj, pass.Pkg) || outer[dObj] && !plain:
				pass.Reportf(as.Lhs[i].Pos(), "handler retains received payload %s beyond the call: the engine recycles it at cycle end (copy what must stay)", id.Name)
			case !plain:
				forwarded(as.Lhs[i].Pos(), id)
			}
		}
		return true
	})
}

// isReceived reports whether e is a received payload or a conversion of one.
func isReceived(pass *Pass, received map[types.Object]bool, e ast.Expr) bool {
	id, ok := ast.Unparen(unconvert(pass, e)).(*ast.Ident)
	return ok && received[pass.Info.Uses[id]]
}

// aliasSource strips from e what hands back its operand's memory —
// parens, reslices, and calls that may return their first argument (see
// passesFirst) — and returns the expression whose memory e may share.
func aliasSource(pass *Pass, e ast.Expr) ast.Expr {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.SliceExpr:
			e = x.X
		case *ast.CallExpr:
			if !passesFirst(pass, x) {
				return x
			}
			e = x.Args[0]
		default:
			return x
		}
	}
}

// passesFirst reports whether call may return its first argument, or a
// reslice of it: append does, and so may a function of the package under
// analysis whose one result has its first parameter's slice type (sized,
// mergeRuns). Functions of other packages are taken to copy (slices.Clone).
func passesFirst(pass *Pass, call *ast.CallExpr) bool {
	if len(call.Args) == 0 {
		return false
	}
	if calleeBuiltin(pass.Info, call) == "append" {
		return true
	}
	fn := calleeFunc(pass.Info, call)
	if fn == nil || fn.Pkg() != pass.Pkg {
		return false
	}
	sig := fn.Type().(*types.Signature)
	if sig.Params().Len() == 0 || sig.Results().Len() != 1 {
		return false
	}
	first := sig.Params().At(0).Type()
	_, slice := first.Underlying().(*types.Slice)
	return slice && types.Identical(first, sig.Results().At(0).Type())
}

// recyclable reports whether t is a pointer to a payload type: one whose
// method set has Recycle(*sim.PayloadCache).
func recyclable(t types.Type) bool {
	if _, ok := t.(*types.Pointer); !ok {
		return false
	}
	m, _, _ := types.LookupFieldOrMethod(t, false, nil, "Recycle")
	fn, ok := m.(*types.Func)
	if !ok {
		return false
	}
	sig := fn.Type().(*types.Signature)
	return sig.Params().Len() == 1 && namedTypeIn(sig.Params().At(0).Type(), simPackageName, "PayloadCache")
}
