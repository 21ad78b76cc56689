// Package diag defines the diagnostic record shared by Condor's static
// analyses: the pre-synthesis design verifier (internal/verify) and the
// runtime checks that remain inside the dataflow layer. It is a leaf package
// so that both internal/dataflow (which emits diagnostics as wrapped errors)
// and internal/verify (which collects them in batches) can depend on it
// without an import cycle.
package diag

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// Rule identifiers of the Condor design-rule catalogue. The IDs are stable
// API: tests, CI and CLI output match on them. The full catalogue — what
// each rule checks and which paper mechanism it guards — is documented in
// internal/verify and in the "Static analysis & design verification"
// section of README.md.
const (
	RuleShapeChain       = "CND001" // successor in-shape must equal predecessor out-shape
	RuleShapeGeometry    = "CND002" // recorded out-shape must satisfy the paper's shape equations
	RuleChainMissing     = "CND003" // features-extraction PEs need a filter chain (and only they do)
	RuleChainWindow      = "CND004" // chain window/width must cover every fused layer
	RuleChainTaps        = "CND005" // taps must be the K² accesses in lexicographically-inverse order
	RuleFIFODepth        = "CND006" // inter-filter FIFO depth must equal the reuse distance
	RuleInterPEFIFO      = "CND007" // inter-PE streaming FIFOs need at least one slot
	RuleWeightWords      = "CND008" // weight entry word count must match the layer geometry
	RuleWeightMissing    = "CND009" // compute layers need a weight entry
	RuleBiasWords        = "CND010" // bias entry word count must match the output channels
	RuleBoardUnknown     = "CND011" // the deployment board must be in the catalogue
	RuleFreqRange        = "CND012" // requested clock must be positive and within the platform maximum
	RuleResourceBudget   = "CND013" // the kernel must fit the board's shell-excluded budget
	RuleHLSArrayLimit    = "CND014" // static arrays must stay within the HLS front-end limit
	RuleParallelism      = "CND015" // port parallelism must be positive and useful
	RuleWordBits         = "CND016" // fabric word width must be 8 or 32 bits
	RuleEmptyStructure   = "CND017" // the spec needs PEs and every PE needs layers
	RuleStageOrder       = "CND018" // features extraction must precede classification
	RuleIRCoverage       = "CND019" // the spec must cover the IR's compute layers in order
	RuleFIFOOccupancy    = "CND020" // worst-case FIFO-network edge occupancy must fit the declared depth
	RuleCUResource       = "CND021" // replicated-CU resource totals must fit the board budget
	RuleFabricConfig     = "CND022" // the (parallelism, CUs, burst) execution configuration must be sane
	RuleLanePacking      = "CND023" // packed lanes must divide streamed-edge volumes (else padded tail lanes)
	RuleFrameInterleave  = "CND024" // two-epochs-in-flight occupancy must fit FIFO depths under batch streaming
	RuleConvAlgo         = "CND025" // conv algorithm must be known; winograd_f23 needs a qualifying 3x3/stride-1 layer
	RuleAccumulatorRange = "CND026" // an int8 layer's accumulation depth times 128² must stay below 2³¹ (the int32 accumulator lane)
)

// Severity classifies a diagnostic.
type Severity int

const (
	// Warning marks a design smell that does not prevent instantiation
	// (wasted resources, dubious parallelism). Builds proceed.
	Warning Severity = iota
	// Error marks a design that must not reach synthesis or simulation:
	// instantiating it would deadlock, mis-size buffers or panic.
	Error
)

// String returns the compiler-style severity label.
func (s Severity) String() string {
	if s == Error {
		return "error"
	}
	return "warning"
}

// Diagnostic is one finding of a design rule, printable like a compiler
// error and matchable by rule ID in tests and tooling.
type Diagnostic struct {
	// Rule is the stable catalogue identifier (e.g. "CND001").
	Rule     string
	Severity Severity
	// PE and Layer locate the finding in the accelerator structure; either
	// may be empty for spec-wide findings.
	PE    string
	Layer string
	// Message is the human-readable explanation.
	Message string
}

// Error implements the error interface so a Diagnostic can be returned (or
// wrapped with %w) anywhere an error is expected.
func (d *Diagnostic) Error() string { return d.String() }

// String formats the diagnostic like a compiler error:
//
//	error[CND001] pe1/conv2: out-shape 8x4x4 does not match successor in-shape 8x5x5
func (d *Diagnostic) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s[%s]", d.Severity, d.Rule)
	if loc := d.Location(); loc != "" {
		b.WriteString(" " + loc)
	}
	b.WriteString(": " + d.Message)
	return b.String()
}

// Location returns the "pe/layer" locus of the finding ("" if spec-wide).
func (d *Diagnostic) Location() string {
	switch {
	case d.PE != "" && d.Layer != "":
		return d.PE + "/" + d.Layer
	case d.PE != "":
		return d.PE
	default:
		return d.Layer
	}
}

// New builds a diagnostic with a formatted message.
func New(rule string, sev Severity, pe, layer, format string, args ...any) *Diagnostic {
	return &Diagnostic{Rule: rule, Severity: sev, PE: pe, Layer: layer, Message: fmt.Sprintf(format, args...)}
}

// Errorf builds an Error-severity diagnostic, for call sites that return it
// directly as an error.
func Errorf(rule, pe, layer, format string, args ...any) *Diagnostic {
	return New(rule, Error, pe, layer, format, args...)
}

// Rule extracts the rule ID from an error that is (or wraps) a Diagnostic,
// or "" if the error carries none.
func Rule(err error) string {
	var d *Diagnostic
	if errors.As(err, &d) {
		return d.Rule
	}
	return ""
}

// Sort orders diagnostics for stable output: errors before warnings, then by
// rule ID, then by location.
func Sort(ds []*Diagnostic) {
	sort.SliceStable(ds, func(i, j int) bool {
		if ds[i].Severity != ds[j].Severity {
			return ds[i].Severity > ds[j].Severity
		}
		if ds[i].Rule != ds[j].Rule {
			return ds[i].Rule < ds[j].Rule
		}
		return ds[i].Location() < ds[j].Location()
	})
}

// Err folds a diagnostic batch into a single error: nil when no
// Error-severity diagnostic is present, otherwise an error listing every
// error-level finding (warnings are dropped — they are report material, not
// failures). The first error diagnostic is wrapped, so errors.As and
// diag.Rule still recover it.
func Err(ds []*Diagnostic) error {
	var errs []*Diagnostic
	for _, d := range ds {
		if d.Severity == Error {
			errs = append(errs, d)
		}
	}
	if len(errs) == 0 {
		return nil
	}
	if len(errs) == 1 {
		return errs[0]
	}
	rest := make([]string, 0, len(errs)-1)
	for _, d := range errs[1:] {
		rest = append(rest, d.String())
	}
	return fmt.Errorf("%w\n%s", errs[0], strings.Join(rest, "\n"))
}

// HasErrors reports whether any diagnostic is Error severity.
func HasErrors(ds []*Diagnostic) bool {
	for _, d := range ds {
		if d.Severity == Error {
			return true
		}
	}
	return false
}
