package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// FramesAnalyzer proves the wire protocol stays total as frame types are
// added:
//
//  1. Every frame-type constant (protocol.Type) must be referenced in
//     every endpoint package (server and worker). A frame only one side
//     knows about is a frame the other side silently drops — exactly the
//     hole that turns an "unplug" into undetectable lost work.
//  2. Every switch over the frame type in an endpoint package must
//     either carry a default case (explicit forward-compatibility
//     policy) or cover every constant. Adding a frame without extending
//     a dispatch switch is a build-breaking diagnostic, not a silent
//     fallthrough.
//  3. Every composite literal of the frame struct (protocol.Message)
//     must set the Type field explicitly; an untyped frame is rejected
//     by the peer as corrupt.
//  4. Rule 2 also applies to switches over the worker telemetry event
//     kinds (protocol.EventKind): a new event kind must extend every
//     fold switch or the switch must declare a default policy.
var FramesAnalyzer = &Analyzer{
	Name: "frames",
	Run:  runFrames,
}

// The protocol package's frame discriminator, frame struct and
// telemetry event discriminator.
const (
	frameTypeName   = "Type"
	messageTypeName = "Message"
	eventKindName   = "EventKind"
)

func runFrames(prog *Program) []Diagnostic {
	pkgs, diags := prog.scope("frames", protocolPkg, serverPkg, workerPkg)
	if len(diags) > 0 {
		return diags
	}
	proto, endpoints := pkgs[0], pkgs[1:]
	diags = prog.declared("frames", proto, messageTypeName)

	// 1. Every frame-type constant referenced in every endpoint package.
	for _, ep := range endpoints {
		used := map[types.Object]bool{}
		for _, id := range usesOf(ep) {
			used[ep.Info.Uses[id]] = true
		}
		for _, c := range discriminatorConsts(proto, frameTypeName) {
			if !used[c] {
				diags = append(diags, prog.diag("frames", declSite(proto, c.Name()),
					"frame type %s.%s is never referenced in %s: add a dispatch case or sender",
					proto.Types.Name(), c.Name(), ep.Path))
			}
		}
	}

	// 2. Frame-type switches are exhaustive or carry a default — and the
	// same for the telemetry event-kind discriminator (rule 4).
	for _, typeName := range []string{frameTypeName, eventKindName} {
		consts := discriminatorConsts(proto, typeName)
		if len(consts) == 0 {
			diags = append(diags, prog.unresolved("frames", "constants of type "+protocolPkg+"."+typeName))
		}
		diags = append(diags, switchDiags(prog, proto, endpoints, typeName, consts)...)
	}

	// 3. Every frame literal sets the Type field.
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				lit, ok := n.(*ast.CompositeLit)
				if !ok {
					return true
				}
				t, ok := pkg.Info.Types[lit]
				if !ok || !isNamedType(t.Type, protocolPkg, messageTypeName) {
					return true
				}
				for _, el := range lit.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok && id.Name == "Type" {
							return true
						}
					}
				}
				diags = append(diags, prog.diag("frames", lit,
					"%s literal does not set Type: the peer rejects untyped frames as corrupt",
					messageTypeName))
				return true
			})
		}
	}
	return diags
}

// discriminatorConsts lists, in name order, the constants of one named
// discriminator type declared in the protocol package.
func discriminatorConsts(proto *Package, typeName string) []*types.Const {
	var consts []*types.Const
	scope := proto.Types.Scope()
	for _, name := range scope.Names() { // sorted
		if c, ok := scope.Lookup(name).(*types.Const); ok && isNamedType(c.Type(), protocolPkg, typeName) {
			consts = append(consts, c)
		}
	}
	return consts
}

// switchDiags checks that every switch over the named discriminator type
// in an endpoint package is exhaustive or carries a default case.
func switchDiags(prog *Program, proto *Package, endpoints []*Package, typeName string, consts []*types.Const) []Diagnostic {
	var diags []Diagnostic
	for _, ep := range endpoints {
		for _, f := range ep.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				sw, ok := n.(*ast.SwitchStmt)
				if !ok || sw.Tag == nil {
					return true
				}
				t, ok := ep.Info.Types[sw.Tag]
				if !ok || !isNamedType(t.Type, protocolPkg, typeName) {
					return true
				}
				covered := map[string]bool{} // by constant value
				for _, c := range sw.Body.List {
					cc := c.(*ast.CaseClause)
					if cc.List == nil {
						return true // a default case is a declared policy
					}
					for _, e := range cc.List {
						if tv, ok := ep.Info.Types[e]; ok && tv.Value != nil {
							covered[tv.Value.String()] = true
						}
					}
				}
				var missing []string
				for _, c := range consts {
					if !covered[c.Val().String()] {
						missing = append(missing, c.Name())
					}
				}
				if len(missing) > 0 {
					diags = append(diags, prog.diag("frames", sw,
						"switch over %s.%s has no default case and misses: %s",
						proto.Types.Name(), typeName, strings.Join(missing, ", ")))
				}
				return true
			})
		}
	}
	return diags
}

// declSite finds the AST node declaring a package-scope name; used for
// positioning diagnostics at the constant's declaration.
func declSite(pkg *Package, name string) ast.Node {
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, id := range vs.Names {
					if id.Name == name {
						return id
					}
				}
			}
		}
	}
	return pkg.Files[0]
}

// usesOf lists every identifier in a package (for Uses lookups).
func usesOf(pkg *Package) []*ast.Ident {
	var ids []*ast.Ident
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				ids = append(ids, id)
			}
			return true
		})
	}
	return ids
}
