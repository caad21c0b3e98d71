package live

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
)

// Prometheus text-exposition grammar, the subset /metrics emits.
var (
	metricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelRe      = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// ValidateExposition checks that body parses as Prometheus text
// exposition format (version 0.0.4): every non-comment line is
// `name{label="value",...} value` with well-formed names, quoting and a
// float-parseable sample value, and every TYPE comment declares a valid
// type. Used by the live-server tests.
func ValidateExposition(body []byte) error {
	samples := 0
	for i, line := range strings.Split(string(body), "\n") {
		line = strings.TrimRight(line, "\r")
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if err := validateComment(line); err != nil {
				return fmt.Errorf("line %d: %w (%q)", i+1, err, line)
			}
			continue
		}
		if err := validateSample(line); err != nil {
			return fmt.Errorf("line %d: %w (%q)", i+1, err, line)
		}
		samples++
	}
	if samples == 0 {
		return fmt.Errorf("exposition contains no samples")
	}
	return nil
}

func validateComment(line string) error {
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return fmt.Errorf("bare # comment")
	}
	switch fields[1] {
	case "HELP":
		if len(fields) < 3 || !metricNameRe.MatchString(fields[2]) {
			return fmt.Errorf("malformed HELP")
		}
	case "TYPE":
		if len(fields) != 4 || !metricNameRe.MatchString(fields[2]) {
			return fmt.Errorf("malformed TYPE")
		}
		switch fields[3] {
		case "counter", "gauge", "histogram", "summary", "untyped":
		default:
			return fmt.Errorf("unknown metric type %q", fields[3])
		}
	default:
		return fmt.Errorf("unknown comment keyword %q", fields[1])
	}
	return nil
}

func validateSample(line string) error {
	rest := line
	brace := strings.IndexByte(rest, '{')
	var name string
	if brace >= 0 {
		name = rest[:brace]
		end, err := validateLabels(rest[brace:])
		if err != nil {
			return err
		}
		rest = rest[brace+end:]
	} else {
		sp := strings.IndexByte(rest, ' ')
		if sp < 0 {
			return fmt.Errorf("sample missing value")
		}
		name = rest[:sp]
		rest = rest[sp:]
	}
	if !metricNameRe.MatchString(name) {
		return fmt.Errorf("bad metric name %q", name)
	}
	value := strings.TrimSpace(rest)
	if value == "" {
		return fmt.Errorf("sample missing value")
	}
	// An OpenMetrics exemplar annotation may follow the value:
	// `value # {label="v",...} exemplar_value`.
	var exemplar string
	if hash := strings.Index(value, " # "); hash >= 0 {
		exemplar = strings.TrimSpace(value[hash+3:])
		value = strings.TrimSpace(value[:hash])
	}
	// A timestamp may follow the value; /metrics never emits one, but
	// accept it per the format.
	valField := strings.Fields(value)[0]
	if _, err := strconv.ParseFloat(valField, 64); err != nil {
		return fmt.Errorf("bad sample value %q", valField)
	}
	if exemplar != "" {
		if len(exemplar) == 0 || exemplar[0] != '{' {
			return fmt.Errorf("exemplar missing label block")
		}
		end, err := validateLabels(exemplar)
		if err != nil {
			return fmt.Errorf("exemplar: %w", err)
		}
		ev := strings.TrimSpace(exemplar[end:])
		if ev == "" {
			return fmt.Errorf("exemplar missing value")
		}
		if _, err := strconv.ParseFloat(strings.Fields(ev)[0], 64); err != nil {
			return fmt.Errorf("bad exemplar value %q", ev)
		}
	}
	return nil
}

// validateLabels parses a `{name="value",...}` block starting at s[0]=='{'
// and returns the index just past the closing brace.
func validateLabels(s string) (int, error) {
	i := 1 // past '{'
	for {
		if i >= len(s) {
			return 0, fmt.Errorf("unterminated label block")
		}
		if s[i] == '}' {
			return i + 1, nil
		}
		eq := strings.IndexByte(s[i:], '=')
		if eq < 0 {
			return 0, fmt.Errorf("label missing '='")
		}
		name := s[i : i+eq]
		if !labelRe.MatchString(name) {
			return 0, fmt.Errorf("bad label name %q", name)
		}
		i += eq + 1
		if i >= len(s) || s[i] != '"' {
			return 0, fmt.Errorf("label value not quoted")
		}
		i++ // past opening quote
		for {
			if i >= len(s) {
				return 0, fmt.Errorf("unterminated label value")
			}
			if s[i] == '\\' {
				if i+1 >= len(s) {
					return 0, fmt.Errorf("dangling escape")
				}
				switch s[i+1] {
				case '\\', '"', 'n':
				default:
					return 0, fmt.Errorf("bad escape \\%c", s[i+1])
				}
				i += 2
				continue
			}
			if s[i] == '"' {
				i++
				break
			}
			i++
		}
		if i < len(s) && s[i] == ',' {
			i++
		}
	}
}
