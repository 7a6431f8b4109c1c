package trustnetd

import (
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"regexp"
	"sort"
	"strings"
)

// route is one row of the typed route table: the HTTP operation plus
// the request/response struct types it decodes and encodes. The mux is
// built from the first three fields, the OpenAPI document from all of
// them — one source of truth, no drift.
type route struct {
	method  string
	pattern string
	summary string
	// request and response are struct instances (zero values) whose
	// types drive schema derivation; nil means no JSON body on that
	// side.
	request  any
	response any
	handler  http.HandlerFunc
}

// pathParam extracts {wildcard} segments from Go 1.22 mux patterns —
// the same syntax OpenAPI uses for path parameters.
var pathParam = regexp.MustCompile(`\{([a-zA-Z0-9_]+)\}`)

// errorStatuses lists, by "METHOD pattern", the error statuses an
// operation answers that a client must tell apart from the default
// error.
var errorStatuses = map[string]map[string]string{
	"POST /v1/jobs": {
		"429": "The queue is full; retry after the Retry-After header's seconds",
		"503": "The daemon is draining and admits no new jobs",
	},
}

// openAPIDocument derives an OpenAPI 3 document from the route table by
// reflecting over each route's typed request and response structs.
// Struct types land in components.schemas under their Go type name and
// are referenced by $ref, so shared shapes (GraphInfo, JobStatus)
// appear once.
func openAPIDocument(routes []route) ([]byte, error) {
	schemas := map[string]any{}
	paths := map[string]map[string]any{}
	for _, rt := range routes {
		op := map[string]any{
			"summary":   rt.summary,
			"responses": map[string]any{},
		}
		var params []any
		for _, m := range pathParam.FindAllStringSubmatch(rt.pattern, -1) {
			params = append(params, map[string]any{
				"name":     m[1],
				"in":       "path",
				"required": true,
				"schema":   map[string]any{"type": "string"},
			})
		}
		if params != nil {
			op["parameters"] = params
		}
		if rt.request != nil {
			ref, err := schemaFor(reflect.TypeOf(rt.request), schemas)
			if err != nil {
				return nil, err
			}
			op["requestBody"] = map[string]any{
				"required": true,
				"content":  map[string]any{"application/json": map[string]any{"schema": ref}},
			}
		}
		resp := map[string]any{"description": "OK"}
		if rt.response != nil {
			ref, err := schemaFor(reflect.TypeOf(rt.response), schemas)
			if err != nil {
				return nil, err
			}
			resp["content"] = map[string]any{"application/json": map[string]any{"schema": ref}}
		}
		op["responses"].(map[string]any)["200"] = resp
		errRef, err := schemaFor(reflect.TypeOf(ErrorResponse{}), schemas)
		if err != nil {
			return nil, err
		}
		op["responses"].(map[string]any)["default"] = map[string]any{
			"description": "Error",
			"content":     map[string]any{"application/json": map[string]any{"schema": errRef}},
		}
		for code, desc := range errorStatuses[rt.method+" "+rt.pattern] {
			op["responses"].(map[string]any)[code] = map[string]any{
				"description": desc,
				"content":     map[string]any{"application/json": map[string]any{"schema": errRef}},
			}
		}
		if paths[rt.pattern] == nil {
			paths[rt.pattern] = map[string]any{}
		}
		paths[rt.pattern][strings.ToLower(rt.method)] = op
	}
	doc := map[string]any{
		"openapi": "3.0.3",
		"info": map[string]any{
			"title":       "trustnetd",
			"description": "Long-lived social-graph measurement service: graph registry, async measurement queue, content-addressed artifact cache.",
			"version":     "1",
		},
		"paths":      paths,
		"components": map[string]any{"schemas": schemas},
	}
	return json.MarshalIndent(doc, "", "  ")
}

// schemaFor returns a $ref to t's schema, deriving and memoizing it in
// schemas on first sight. Only plain-data shapes appear in the API
// types, so the supported kinds are deliberately few; an unsupported
// kind is a programming error surfaced at daemon startup, not a
// silently wrong spec.
func schemaFor(t reflect.Type, schemas map[string]any) (map[string]any, error) {
	if t.Kind() != reflect.Struct {
		return nil, fmt.Errorf("top-level schema for non-struct %s", t)
	}
	name := t.Name()
	if name == "" {
		return nil, fmt.Errorf("anonymous struct in route table")
	}
	ref := map[string]any{"$ref": "#/components/schemas/" + name}
	if _, done := schemas[name]; done {
		return ref, nil
	}
	schemas[name] = map[string]any{} // reserve before recursing (cycles)
	props := map[string]any{}
	var required []string
	if err := structProps(t, schemas, props, &required); err != nil {
		return nil, err
	}
	obj := map[string]any{"type": "object", "properties": props}
	if len(required) > 0 {
		sort.Strings(required)
		obj["required"] = required
	}
	schemas[name] = obj
	return ref, nil
}

// structProps fills props from t's exported fields, honoring json tags
// (name, "-", omitempty → not required) and flattening embedded
// structs the way encoding/json does.
func structProps(t reflect.Type, schemas map[string]any, props map[string]any, required *[]string) error {
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() {
			continue
		}
		tag := f.Tag.Get("json")
		name, opts, _ := strings.Cut(tag, ",")
		if name == "-" {
			continue
		}
		if f.Anonymous && name == "" && f.Type.Kind() == reflect.Struct {
			if err := structProps(f.Type, schemas, props, required); err != nil {
				return err
			}
			continue
		}
		if name == "" {
			name = f.Name
		}
		sch, err := fieldSchema(f.Type, schemas)
		if err != nil {
			return fmt.Errorf("field %s.%s: %w", t.Name(), f.Name, err)
		}
		props[name] = sch
		if !strings.Contains(opts, "omitempty") {
			*required = append(*required, name)
		}
	}
	return nil
}

// fieldSchema maps one Go type onto its OpenAPI schema.
func fieldSchema(t reflect.Type, schemas map[string]any) (any, error) {
	switch t.Kind() {
	case reflect.String:
		return map[string]any{"type": "string"}, nil
	case reflect.Bool:
		return map[string]any{"type": "boolean"}, nil
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return map[string]any{"type": "integer", "format": "int64"}, nil
	case reflect.Float32, reflect.Float64:
		return map[string]any{"type": "number", "format": "double"}, nil
	case reflect.Slice, reflect.Array:
		item, err := fieldSchema(t.Elem(), schemas)
		if err != nil {
			return nil, err
		}
		return map[string]any{"type": "array", "items": item}, nil
	case reflect.Struct:
		return schemaFor(t, schemas)
	case reflect.Pointer:
		return fieldSchema(t.Elem(), schemas)
	default:
		return nil, fmt.Errorf("unsupported kind %s", t.Kind())
	}
}
