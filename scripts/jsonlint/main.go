// Command jsonlint validates that each argument file parses as JSON —
// the cheap integrity check the crash-recovery and cache smokes run over
// the METRICS.json and artifact cache entries a run leaves behind, an
// interrupted run included (a torn write would fail to parse;
// jobs.WriteFileAtomic exists to make that impossible). With
// -want-schema, each document must also be an object whose "schema"
// field equals the given value.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	wantSchema := flag.String("want-schema", "", "require each document's schema field to equal this value")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: jsonlint [-want-schema S] file.json...")
		os.Exit(2)
	}
	failed := false
	for _, path := range flag.Args() {
		if err := lint(path, *wantSchema); err != nil {
			fmt.Fprintf(os.Stderr, "jsonlint: %s: %v\n", path, err)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}

func lint(path, wantSchema string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(data, &doc); err != nil {
		return err
	}
	if wantSchema != "" {
		var schema string
		if err := json.Unmarshal(doc["schema"], &schema); err != nil {
			return fmt.Errorf("schema field: %w", err)
		}
		if schema != wantSchema {
			return fmt.Errorf("schema %q, want %q", schema, wantSchema)
		}
	}
	return nil
}
