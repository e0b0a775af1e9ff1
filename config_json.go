package hybridqos

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// MarshalJSON-friendly: Config is a plain struct, so the standard
// encoding/json round-trip works; these helpers add file I/O and
// validation so CLI tools and experiment scripts can share configurations.

// SaveConfig writes the configuration as indented JSON.
func SaveConfig(c Config, path string) error {
	data, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return fmt.Errorf("hybridqos: encoding config: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadConfig reads a configuration previously written by SaveConfig (or
// hand-authored). A field the Config does not have (a typo such as "Cutof")
// or data after the JSON object is an error, not a silently ignored
// setting. The configuration is validated by building it; an invalid file
// errors here rather than at Simulate time.
func LoadConfig(path string) (Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Config{}, err
	}
	var c Config
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		return Config{}, fmt.Errorf("hybridqos: decoding %s: %w", path, err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return Config{}, fmt.Errorf("hybridqos: decoding %s: trailing data after the config object", path)
	}
	if _, err := c.build(); err != nil {
		return Config{}, fmt.Errorf("hybridqos: %s: %w", path, err)
	}
	return c, nil
}
