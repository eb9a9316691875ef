package config

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// INI is a minimal parser for the SCALE-Sim configuration file dialect: a
// line-oriented format with [section] headers and `key = value` or
// `key : value` pairs. `#` and `;` begin comments. Section and key lookups
// are case-insensitive.
type INI struct {
	sections map[string]map[string]string
}

// ParseINI reads the INI dialect from r.
func ParseINI(r io.Reader) (*INI, error) {
	ini := &INI{sections: make(map[string]map[string]string)}
	section := ""
	scanner := bufio.NewScanner(r)
	scanner.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	lineNo := 0
	for scanner.Scan() {
		lineNo++
		line := stripComment(scanner.Text())
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "[") {
			if !strings.HasSuffix(line, "]") {
				return nil, fmt.Errorf("config: line %d: malformed section header %q", lineNo, line)
			}
			section = strings.ToLower(strings.TrimSpace(line[1 : len(line)-1]))
			if section == "" {
				return nil, fmt.Errorf("config: line %d: empty section name", lineNo)
			}
			if _, ok := ini.sections[section]; !ok {
				ini.sections[section] = make(map[string]string)
			}
			continue
		}
		sep := strings.IndexAny(line, "=:")
		if sep < 0 {
			return nil, fmt.Errorf("config: line %d: expected key = value, got %q", lineNo, line)
		}
		key := strings.ToLower(strings.TrimSpace(line[:sep]))
		val := strings.TrimSpace(line[sep+1:])
		if key == "" {
			return nil, fmt.Errorf("config: line %d: empty key", lineNo)
		}
		if section == "" {
			return nil, fmt.Errorf("config: line %d: key %q appears before any [section]", lineNo, key)
		}
		ini.sections[section][key] = val
	}
	if err := scanner.Err(); err != nil {
		return nil, fmt.Errorf("config: reading: %w", err)
	}
	return ini, nil
}

func stripComment(line string) string {
	for _, marker := range []string{"#", ";"} {
		if i := strings.Index(line, marker); i >= 0 {
			line = line[:i]
		}
	}
	return line
}

// Get returns the value for key in section, if present.
func (ini *INI) Get(section, key string) (string, bool) {
	kv, ok := ini.sections[strings.ToLower(section)]
	if !ok {
		return "", false
	}
	v, ok := kv[strings.ToLower(key)]
	return v, ok
}

// Keys returns the sorted keys of a section.
func (ini *INI) Keys(section string) []string {
	kv := ini.sections[strings.ToLower(section)]
	keys := make([]string, 0, len(kv))
	for k := range kv {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Load reads a SCALE-Sim configuration file from disk. Recognized sections
// are [general] (run_name) and [architecture_presets] with the Table I keys.
// Unknown keys are rejected so that typos fail loudly.
func Load(path string) (Config, error) {
	f, err := os.Open(path)
	if err != nil {
		return Config{}, fmt.Errorf("config: %w", err)
	}
	defer f.Close()
	return Parse(f)
}

// Parse reads a SCALE-Sim configuration from r. Missing keys keep their
// defaults from New.
func Parse(r io.Reader) (Config, error) {
	ini, err := ParseINI(r)
	if err != nil {
		return Config{}, err
	}
	cfg := New()
	if v, ok := ini.Get("general", "run_name"); ok {
		cfg.RunName = v
	}
	const arch = "architecture_presets"
	for _, key := range ini.Keys(arch) {
		val, _ := ini.Get(arch, key)
		if err := applyKey(&cfg, key, val); err != nil {
			return Config{}, err
		}
	}
	if err := cfg.Validate(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

func applyKey(cfg *Config, key, val string) error {
	setInt := func(dst *int) error {
		n, err := strconv.Atoi(val)
		if err != nil {
			return fmt.Errorf("config: key %q: %w", key, err)
		}
		*dst = n
		return nil
	}
	setInt64 := func(dst *int64) error {
		n, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			return fmt.Errorf("config: key %q: %w", key, err)
		}
		*dst = n
		return nil
	}
	switch key {
	case "arrayheight":
		return setInt(&cfg.ArrayHeight)
	case "arraywidth":
		return setInt(&cfg.ArrayWidth)
	case "ifmapsramsz", "ifmapsramszkb":
		return setInt(&cfg.IfmapSRAMKB)
	case "filtersramsz", "filtersramszkb":
		return setInt(&cfg.FilterSRAMKB)
	case "ofmapsramsz", "ofmapsramszkb":
		return setInt(&cfg.OfmapSRAMKB)
	case "ifmapoffset":
		return setInt64(&cfg.IfmapOffset)
	case "filteroffset":
		return setInt64(&cfg.FilterOffset)
	case "ofmapoffset":
		return setInt64(&cfg.OfmapOffset)
	case "dataflow":
		df, err := ParseDataflow(val)
		if err != nil {
			return err
		}
		cfg.Dataflow = df
		return nil
	case "topology":
		cfg.TopologyPath = val
		return nil
	case "wordbytes":
		return setInt(&cfg.WordBytes)
	case "edgetrim":
		b, err := strconv.ParseBool(val)
		if err != nil {
			return fmt.Errorf("config: key %q: %w", key, err)
		}
		cfg.EdgeTrim = b
		return nil
	case "vectorlanes":
		return setInt(&cfg.VectorLanes)
	}
	return fmt.Errorf("config: unknown key %q in [architecture_presets]", key)
}

// Write serializes cfg in the file dialect accepted by Parse, so that a
// round trip Load(Write(cfg)) reproduces cfg.
func Write(w io.Writer, cfg Config) error {
	_, err := fmt.Fprintf(w, `[general]
run_name = %s

[architecture_presets]
ArrayHeight : %d
ArrayWidth : %d
IfmapSramSz : %d
FilterSramSz : %d
OfmapSramSz : %d
IfmapOffset : %d
FilterOffset : %d
OfmapOffset : %d
Dataflow : %s
WordBytes : %d
EdgeTrim : %t
VectorLanes : %d
`,
		cfg.RunName,
		cfg.ArrayHeight, cfg.ArrayWidth,
		cfg.IfmapSRAMKB, cfg.FilterSRAMKB, cfg.OfmapSRAMKB,
		cfg.IfmapOffset, cfg.FilterOffset, cfg.OfmapOffset,
		cfg.Dataflow, cfg.WordBytes, cfg.EdgeTrim, cfg.VectorLanes)
	if err != nil {
		return err
	}
	if cfg.TopologyPath != "" {
		_, err = fmt.Fprintf(w, "Topology : %s\n", cfg.TopologyPath)
	}
	return err
}
