(** Schema validation for forensics bundles.

    A bundle is one self-contained JSON document the engine snapshots when
    it detects an anomaly. This module is the single source of truth for
    the document's required shape — [bin/bundle_lint.exe] (the CI gate,
    prom_lint-style) and the test suite both validate through it, so the
    emitting code in [Engine] cannot drift from the checked contract
    unnoticed.

    Checked: the ["perm.forensics/2"] schema tag; identity fields (id, ts,
    class, detail); the anomaly class being one of the known seven; the
    statement section (sql, fingerprint); the plan section (plan hash,
    estimate, per-node est/act rows); phase and metrics-delta maps; the
    recorder-event tail (each event typed with seq/ts/kind); the WAL
    section (status + replay counters, or null for in-memory sessions);
    the spill gauges; and the session-settings section. *)

val classes : string list
(** The seven anomaly classes a bundle may carry: ["error"], ["timeout"],
    ["cancelled"], ["resource_exhausted"], ["fault"], ["regression"],
    ["wal_replay"]. *)

val schema_tag : string
(** ["perm.forensics/2"] — the required value of the ["schema"] field.
    Version 2 dropped the ["degraded"] class and the parallel-execution
    settings. *)

val validate : Json.t -> (string, string) result
(** [Ok class] when the document is a well-formed bundle; [Error msg]
    pinpointing the first violation otherwise. *)

val validate_string : string -> (string, string) result
(** Parse then {!validate}; parse failures surface as [Error]. *)
