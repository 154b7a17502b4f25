// otlp.go renders a finished JobTrace as an OTLP-compatible JSON document
// (the protobuf-JSON mapping of opentelemetry-proto's ExportTraceServiceRequest:
// hex-encoded 16-byte trace ids and 8-byte span ids, int64 timestamps encoded
// as decimal strings, attributes as keyed AnyValue wrappers). A future
// OpenTelemetry bridge only needs to forward the document; no OTel dependency
// is taken here.
package trace

import (
	"encoding/binary"
	"encoding/hex"
	"strconv"
	"strings"
)

// OTLPDocument is the top-level trace export payload.
type OTLPDocument struct {
	ResourceSpans []OTLPResourceSpans `json:"resourceSpans"`
}

// OTLPResourceSpans groups the spans of one resource (one loopd process).
type OTLPResourceSpans struct {
	Resource   OTLPResource     `json:"resource"`
	ScopeSpans []OTLPScopeSpans `json:"scopeSpans"`
}

// OTLPResource carries resource attributes (service.name).
type OTLPResource struct {
	Attributes []OTLPAttr `json:"attributes,omitempty"`
}

// OTLPScopeSpans groups spans emitted by one instrumentation scope.
type OTLPScopeSpans struct {
	Scope OTLPScope  `json:"scope"`
	Spans []OTLPSpan `json:"spans"`
}

// OTLPScope names the instrumentation scope.
type OTLPScope struct {
	Name    string `json:"name"`
	Version string `json:"version,omitempty"`
}

// OTLPSpan is one span in protobuf-JSON shape. SpanKind 1 is SPAN_KIND_INTERNAL.
type OTLPSpan struct {
	TraceID           string     `json:"traceId"`
	SpanID            string     `json:"spanId"`
	ParentSpanID      string     `json:"parentSpanId,omitempty"`
	Name              string     `json:"name"`
	Kind              int        `json:"kind"`
	StartTimeUnixNano string     `json:"startTimeUnixNano"`
	EndTimeUnixNano   string     `json:"endTimeUnixNano"`
	Attributes        []OTLPAttr `json:"attributes,omitempty"`
}

// OTLPAttr is one key/value attribute.
type OTLPAttr struct {
	Key   string       `json:"key"`
	Value OTLPAnyValue `json:"value"`
}

// OTLPAnyValue is the protobuf-JSON AnyValue: exactly one field set.
// Int64 values are encoded as decimal strings per the proto3 JSON mapping.
type OTLPAnyValue struct {
	StringValue string `json:"stringValue,omitempty"`
	IntValue    string `json:"intValue,omitempty"`
	BoolValue   bool   `json:"boolValue,omitempty"`
}

func strAttr(key, v string) OTLPAttr {
	return OTLPAttr{Key: key, Value: OTLPAnyValue{StringValue: v}}
}

func intAttr(key string, v int64) OTLPAttr {
	return OTLPAttr{Key: key, Value: OTLPAnyValue{IntValue: strconv.FormatInt(v, 10)}}
}

func boolAttr(key string, v bool) OTLPAttr {
	return OTLPAttr{Key: key, Value: OTLPAnyValue{BoolValue: v}}
}

// traceID is the 16-byte hex trace id derived from the job id.
func (jt *JobTrace) traceID() string {
	var b [16]byte
	binary.BigEndian.PutUint64(b[8:], jt.ID)
	return hex.EncodeToString(b[:])
}

// spanID is the 8-byte hex span id for span index idx of this job. Job ids
// stay far below 2^48 in practice, so the (id<<16 | idx) packing is unique.
func (jt *JobTrace) spanID(idx int) string {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], jt.ID<<16|uint64(idx+1))
	return hex.EncodeToString(b[:])
}

const spanKindInternal = 1

// OTLP renders the trace as an OTLP-compatible span tree:
//
//	job                      submitted → joined/canceled
//	├── blocked              blocked → released        (dependency wait, if any)
//	├── queued               admitted → dispatched     (admission queue wait)
//	└── run                  dispatched → joined
//	    ├── wave             one per participant stint (chunk wave)
//	    └── ...
//
// Open waves (the completing participant records its end just after the join
// wave publishes) fall back to the trace end time. service names the
// resource's service.name attribute.
func (jt *JobTrace) OTLP(service string) OTLPDocument {
	if jt == nil {
		return OTLPDocument{}
	}
	events, waves, truncated := jt.snapshot()

	var submitted, blocked, released, admitted, dispatched, end int64
	outcome := "completed"
	finalShard, initialWorkers, peakWorkers := 0, 0, 0
	recovered := false
	type pause struct {
		start, end int64
		detail     string
	}
	var pauses []pause
	for _, ev := range events {
		switch ev.Type {
		case eventTypeNames[EvSubmitted]:
			submitted = ev.TimeUnixNano
			if ev.Detail == "recovered" {
				recovered = true
			}
		case eventTypeNames[EvSuspended]:
			pauses = append(pauses, pause{start: ev.TimeUnixNano, detail: ev.Detail})
		case eventTypeNames[EvResumed]:
			if n := len(pauses); n > 0 && pauses[n-1].end == 0 {
				pauses[n-1].end = ev.TimeUnixNano
			}
		case eventTypeNames[EvBlocked]:
			blocked = ev.TimeUnixNano
		case eventTypeNames[EvReleased]:
			released = ev.TimeUnixNano
		case eventTypeNames[EvAdmitted]:
			admitted = ev.TimeUnixNano
		case eventTypeNames[EvDispatched]:
			dispatched = ev.TimeUnixNano
			initialWorkers = ev.Workers
		case eventTypeNames[EvJoined]:
			end = ev.TimeUnixNano
			peakWorkers = ev.Workers
		case eventTypeNames[EvCanceled]:
			if end == 0 {
				end = ev.TimeUnixNano
			}
			outcome = "canceled"
		}
		finalShard = ev.Shard
	}
	if len(events) > 0 {
		if submitted == 0 {
			submitted = events[0].TimeUnixNano
		}
		if end == 0 {
			end = events[len(events)-1].TimeUnixNano
		}
	}

	traceID := jt.traceID()
	nano := func(v int64) string { return strconv.FormatInt(v, 10) }

	rootAttrs := []OTLPAttr{
		intAttr("job.id", int64(jt.ID)),
		strAttr("tenant", jt.Tenant),
		intAttr("priority", int64(jt.Priority)),
		intAttr("shard", int64(finalShard)),
		strAttr("outcome", outcome),
	}
	if jt.Label != "" {
		rootAttrs = append(rootAttrs, strAttr("label", jt.Label))
	}
	if peakWorkers > 0 {
		rootAttrs = append(rootAttrs, intAttr("workers.peak", int64(peakWorkers)))
	}
	if truncated > 0 {
		rootAttrs = append(rootAttrs, intAttr("trace.truncated", int64(truncated)))
	}
	if recovered {
		// The job was re-admitted from a checkpoint after a restart; this
		// span tree continues the pre-crash lifecycle under the same id.
		rootAttrs = append(rootAttrs, boolAttr("recovered", true))
	}

	idx := 0
	rootID := jt.spanID(idx)
	spans := []OTLPSpan{{
		TraceID:           traceID,
		SpanID:            rootID,
		Name:              "job",
		Kind:              spanKindInternal,
		StartTimeUnixNano: nano(submitted),
		EndTimeUnixNano:   nano(end),
		Attributes:        rootAttrs,
	}}

	if blocked != 0 {
		idx++
		blockEnd := released
		if blockEnd == 0 {
			blockEnd = end
		}
		spans = append(spans, OTLPSpan{
			TraceID: traceID, SpanID: jt.spanID(idx), ParentSpanID: rootID,
			Name: "blocked", Kind: spanKindInternal,
			StartTimeUnixNano: nano(blocked), EndTimeUnixNano: nano(blockEnd),
		})
	}
	if admitted != 0 {
		idx++
		queueEnd := dispatched
		if queueEnd == 0 {
			queueEnd = end
		}
		spans = append(spans, OTLPSpan{
			TraceID: traceID, SpanID: jt.spanID(idx), ParentSpanID: rootID,
			Name: "queued", Kind: spanKindInternal,
			StartTimeUnixNano: nano(admitted), EndTimeUnixNano: nano(queueEnd),
		})
	}
	if dispatched != 0 {
		idx++
		runID := jt.spanID(idx)
		spans = append(spans, OTLPSpan{
			TraceID: traceID, SpanID: runID, ParentSpanID: rootID,
			Name: "run", Kind: spanKindInternal,
			StartTimeUnixNano: nano(dispatched), EndTimeUnixNano: nano(end),
			Attributes: []OTLPAttr{intAttr("workers.initial", int64(initialWorkers))},
		})
		for _, w := range waves {
			idx++
			waveEnd := w.EndUnixNano
			if waveEnd == 0 {
				waveEnd = end
			}
			attrs := []OTLPAttr{intAttr("shard", int64(w.Shard))}
			if w.Lent {
				attrs = append(attrs, boolAttr("lent", true))
			}
			spans = append(spans, OTLPSpan{
				TraceID: traceID, SpanID: jt.spanID(idx), ParentSpanID: runID,
				Name: "wave", Kind: spanKindInternal,
				StartTimeUnixNano: nano(w.StartUnixNano), EndTimeUnixNano: nano(waveEnd),
				Attributes: attrs,
			})
		}
	}

	// Each checkpointed pause is a child span of the job: the interval from
	// the park to the re-admission (or, for a job torn down while parked, to
	// the trace's end), carrying the cursor watermark it parked at.
	for _, p := range pauses {
		idx++
		pauseEnd := p.end
		if pauseEnd == 0 {
			pauseEnd = end
		}
		var attrs []OTLPAttr
		if c, ok := strings.CutPrefix(p.detail, "cursor="); ok {
			if v, err := strconv.ParseInt(c, 10, 64); err == nil {
				attrs = append(attrs, intAttr("cursor", v))
			}
		}
		spans = append(spans, OTLPSpan{
			TraceID: traceID, SpanID: jt.spanID(idx), ParentSpanID: rootID,
			Name: "suspended", Kind: spanKindInternal,
			StartTimeUnixNano: nano(p.start), EndTimeUnixNano: nano(pauseEnd),
			Attributes: attrs,
		})
	}

	return OTLPDocument{ResourceSpans: []OTLPResourceSpans{{
		Resource: OTLPResource{Attributes: []OTLPAttr{strAttr("service.name", service)}},
		ScopeSpans: []OTLPScopeSpans{{
			Scope: OTLPScope{Name: "loopsched/internal/trace"},
			Spans: spans,
		}},
	}}}
}
