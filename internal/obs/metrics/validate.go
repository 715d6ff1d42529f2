package metrics

import (
	"fmt"
	"strconv"
	"strings"
)

// ValidateExposition checks text against the subset of the OpenMetrics
// grammar this package emits: `# TYPE`/`# HELP` metadata lines, sample
// lines whose names belong to the most recently declared family (with
// the _total/_bucket/_sum/_count suffixes their type allows), parseable
// values, and a final `# EOF` line. It is the contract check behind the
// experiments CLI's end-to-end telemetry test — strict enough to catch
// a malformed render, small enough to need no dependency.
func ValidateExposition(text string) error {
	if text == "" {
		return fmt.Errorf("openmetrics: empty exposition")
	}
	if !strings.HasSuffix(text, "\n") {
		return fmt.Errorf("openmetrics: exposition must end with a newline")
	}
	lines := strings.Split(strings.TrimRight(text, "\n"), "\n")
	if lines[len(lines)-1] != "# EOF" {
		return fmt.Errorf("openmetrics: last line is %q, want %q", lines[len(lines)-1], "# EOF")
	}

	var family, familyType string
	types := make(map[string]string)
	for i, line := range lines[:len(lines)-1] {
		n := i + 1
		switch {
		case line == "":
			return fmt.Errorf("openmetrics: line %d: empty line", n)
		case strings.HasPrefix(line, "# TYPE "):
			fields := strings.Fields(line)
			if len(fields) != 4 {
				return fmt.Errorf("openmetrics: line %d: malformed TYPE line %q", n, line)
			}
			name, typ := fields[2], fields[3]
			if !validName(name) {
				return fmt.Errorf("openmetrics: line %d: invalid metric name %q", n, name)
			}
			switch typ {
			case "counter", "gauge", "histogram", "summary", "info", "unknown":
			default:
				return fmt.Errorf("openmetrics: line %d: unknown metric type %q", n, typ)
			}
			if _, dup := types[name]; dup {
				return fmt.Errorf("openmetrics: line %d: duplicate TYPE for %q", n, name)
			}
			types[name] = typ
			family, familyType = name, typ
		case strings.HasPrefix(line, "# HELP "):
			rest := strings.TrimPrefix(line, "# HELP ")
			name, _, _ := strings.Cut(rest, " ")
			if !validName(name) {
				return fmt.Errorf("openmetrics: line %d: invalid HELP metric name %q", n, name)
			}
			if name != family {
				return fmt.Errorf("openmetrics: line %d: HELP for %q outside its family (current %q)", n, name, family)
			}
		case strings.HasPrefix(line, "#"):
			return fmt.Errorf("openmetrics: line %d: unexpected comment %q", n, line)
		default:
			if err := validateSample(line, family, familyType); err != nil {
				return fmt.Errorf("openmetrics: line %d: %w", n, err)
			}
		}
	}
	return nil
}

// validateSample checks one sample line against the current family.
func validateSample(line, family, familyType string) error {
	if family == "" {
		return fmt.Errorf("sample %q before any TYPE line", line)
	}
	// Split off the value: everything after the last space (we emit no
	// timestamps or exemplars).
	idx := strings.LastIndexByte(line, ' ')
	if idx < 0 {
		return fmt.Errorf("malformed sample %q", line)
	}
	nameAndLabels, value := line[:idx], line[idx+1:]
	if value != "+Inf" && value != "-Inf" && value != "NaN" {
		if _, err := strconv.ParseFloat(value, 64); err != nil {
			return fmt.Errorf("unparseable value %q in %q", value, line)
		}
	}

	name := nameAndLabels
	if b := strings.IndexByte(name, '{'); b >= 0 {
		if !strings.HasSuffix(name, "}") {
			return fmt.Errorf("unterminated label set in %q", line)
		}
		labels := name[b+1 : len(name)-1]
		name = name[:b]
		if labels == "" {
			return fmt.Errorf("empty label set in %q", line)
		}
		for _, pair := range strings.Split(labels, ",") {
			k, v, ok := strings.Cut(pair, "=")
			if !ok || !validName(k) || len(v) < 2 || v[0] != '"' || v[len(v)-1] != '"' {
				return fmt.Errorf("malformed label %q in %q", pair, line)
			}
		}
	}

	var allowed []string
	switch familyType {
	case "counter":
		allowed = []string{family + "_total", family + "_created"}
	case "gauge":
		allowed = []string{family}
	case "histogram":
		allowed = []string{family + "_bucket", family + "_sum", family + "_count", family + "_created"}
	default:
		allowed = []string{family}
	}
	for _, a := range allowed {
		if name == a {
			return nil
		}
	}
	return fmt.Errorf("sample name %q does not belong to %s family %q", name, familyType, family)
}
