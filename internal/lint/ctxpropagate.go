package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// CtxPropagate enforces cancellation plumbing in the concurrent
// packages: an exported function that spawns goroutines or blocks on
// channel operations is a shutdown hazard unless callers can cancel it,
// so it must accept a context.Context and actually use it. The campaign
// engine's partial-store return on cancellation and the HTTP server's
// graceful drain both depend on cancellation reaching every blocking
// frame.
var CtxPropagate = &Analyzer{
	Name: "ctxpropagate",
	Doc:  "exported functions that spawn goroutines or block on channels must accept and forward context.Context",
	Run: func(pass *Pass) {
		for _, file := range pass.Files {
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil || !fn.Name.IsExported() {
					continue
				}
				if !blocksOrSpawns(fn.Body) {
					continue
				}
				ctxParam := contextParam(pass, fn)
				if ctxParam == nil {
					pass.Reportf(fn.Name.Pos(),
						"exported %s spawns goroutines or blocks on channels but has no context.Context parameter",
						fn.Name.Name)
					continue
				}
				if ctxParam.Name() == "_" || !usesObject(pass, fn.Body, ctxParam) {
					pass.Reportf(fn.Name.Pos(),
						"exported %s accepts a context.Context but never forwards it",
						fn.Name.Name)
				}
			}
		}
	},
}

// blocksOrSpawns reports whether the body contains a go statement, a
// select, a channel send or a channel receive.
func blocksOrSpawns(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.GoStmt, *ast.SelectStmt, *ast.SendStmt:
			found = true
		case *ast.UnaryExpr:
			if e.Op == token.ARROW {
				found = true
			}
		}
		return !found
	})
	return found
}

// contextParam returns the function's context.Context parameter object,
// or nil.
func contextParam(pass *Pass, fn *ast.FuncDecl) *types.Var {
	def, ok := pass.Info.Defs[fn.Name].(*types.Func)
	if !ok {
		return nil
	}
	params := def.Type().(*types.Signature).Params()
	for i := 0; i < params.Len(); i++ {
		if types.TypeString(params.At(i).Type(), nil) == "context.Context" {
			return params.At(i)
		}
	}
	return nil
}

// usesObject reports whether obj is referenced anywhere in body.
func usesObject(pass *Pass, body *ast.BlockStmt, obj types.Object) bool {
	used := false
	ast.Inspect(body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && pass.Info.Uses[id] == obj {
			used = true
		}
		return !used
	})
	return used
}
