package gf256

import "testing"

// TestMatrixGuards: impossible shapes panic with the package's prefix.
func TestMatrixGuards(t *testing.T) {
	for name, f := range map[string]func(){
		"negative dimension":    func() { NewMatrix(-1, 2) },
		"Cauchy past the field": func() { Cauchy(200, 57) },
	} {
		func() {
			defer func() {
				if msg, ok := recover().(string); !ok || msg[:7] != "gf256: " {
					t.Errorf("%s: panic %v, want a gf256-prefixed message", name, msg)
				}
			}()
			f()
		}()
	}
}
