package hetgrid

// A lint-style guard that keeps deprecated APIs quarantined: the shims
// (BalanceOpts, the kernel-specific Factor* helpers, the *Opts distributed
// variants, cliutil's re-exported parsers) exist only for downstream
// compatibility, and nothing inside this repo — command, example or
// package — may call them. Tests are exempt, since the shims themselves
// need coverage.

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// deprecatedUse matches a *use* of a deprecated identifier: qualified
// (hetgrid.FactorLU, cliutil.ParseKernel) anywhere, or unqualified inside
// the root package. Word boundaries keep DistributedFactorLU from
// matching FactorLU.
var deprecatedUse = []*regexp.Regexp{
	regexp.MustCompile(`\bhetgrid\.(BalanceOpts|BalanceArrangementOpts|FactorLU|FactorCholesky|FactorQR|QRFactorization|DistributedMultiplyOpts|DistributedFactorLUOpts|DistributedFactorCholeskyOpts|DistributedFactorQROpts)\b`),
	regexp.MustCompile(`\bcliutil\.(ParseKernel|ParseBroadcast|ParseStrategy)\b`),
	// Transport v1 cancellation is gone: fabrics close with
	// Close(ctx)/CloseCause, and no Abort() may come back.
	regexp.MustCompile(`\.Abort\(\)`),
}

// declarationFiles are where the shims live; their declarations (and the
// delegation between them) are allowed.
var declarationFiles = map[string]bool{
	"hetgrid.go":                  true,
	"extras.go":                   true,
	"distributed.go":              true,
	"internal/cliutil/cliutil.go": true,
}

func TestNoDeprecatedAPIUse(t *testing.T) {
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name == "testdata" || strings.HasPrefix(name, ".") && name != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		if declarationFiles[filepath.ToSlash(path)] {
			return nil
		}
		blob, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(blob), "\n") {
			code := line
			if idx := strings.Index(code, "//"); idx >= 0 {
				code = code[:idx]
			}
			for _, re := range deprecatedUse {
				if m := re.FindString(code); m != "" {
					t.Errorf("%s:%d: deprecated API %s (use the functional-options / Factor / SolvePlan replacements)", path, i+1, m)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
