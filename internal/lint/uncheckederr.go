package lint

import (
	"go/ast"
	"go/types"
)

// infallibleRecv are receiver static types whose Write-family methods
// are documented to never return an error (hash.Hash: "it never returns
// an error"; bytes.Buffer and strings.Builder likewise). Checking those
// errors is pure noise, so the analyzer skips them instead of forcing a
// suppression at every fnv hash site.
var infallibleRecv = map[string]bool{
	"hash.Hash": true, "hash.Hash32": true, "hash.Hash64": true,
	"*bytes.Buffer": true, "bytes.Buffer": true,
	"*strings.Builder": true, "strings.Builder": true,
}

// UncheckedErr flags statements that silently discard an error result:
// a call used as a bare statement, or the function of a go/defer
// statement. The dataset and store packages and the campaign engine's
// sink delivery are the write paths of a six-virtual-month campaign — a
// dropped write error there is dropped data. An explicit "_ =" assignment
// is the sanctioned, visible discard and is not flagged.
var UncheckedErr = &Analyzer{
	Name: "uncheckederr",
	Doc:  "forbid silently discarded errors on dataset/store/campaign-sink write paths",
	Run: func(pass *Pass) {
		for _, file := range pass.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				var call *ast.CallExpr
				var how string
				switch st := n.(type) {
				case *ast.ExprStmt:
					call, _ = st.X.(*ast.CallExpr)
					how = "call"
				case *ast.DeferStmt:
					call = st.Call
					how = "defer"
				case *ast.GoStmt:
					call = st.Call
					how = "go"
				default:
					return true
				}
				if call == nil || !returnsError(pass, call) || infallibleCall(pass, call) {
					return true
				}
				pass.Reportf(call.Pos(),
					"%s discards the error from %s; handle it or discard explicitly with _ =",
					how, calleeName(call))
				return true
			})
		}
	},
}

// returnsError reports whether the call's result tuple contains an
// error.
func returnsError(pass *Pass, call *ast.CallExpr) bool {
	sig, ok := pass.Info.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return false // conversion or builtin
	}
	res := sig.Results()
	errType := types.Universe.Lookup("error").Type()
	for i := 0; i < res.Len(); i++ {
		if types.Identical(res.At(i).Type(), errType) {
			return true
		}
	}
	return false
}

// infallibleCall reports whether the call is a Write-family method on a
// receiver type documented never to fail.
func infallibleCall(pass *Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	switch sel.Sel.Name {
	case "Write", "WriteString", "WriteByte", "WriteRune":
	default:
		return false
	}
	recv := pass.Info.TypeOf(sel.X)
	return recv != nil && infallibleRecv[types.TypeString(recv, nil)]
}

// calleeName renders the called expression for the message.
func calleeName(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		if id, ok := fun.X.(*ast.Ident); ok {
			return id.Name + "." + fun.Sel.Name
		}
		return fun.Sel.Name
	default:
		return "call"
	}
}
