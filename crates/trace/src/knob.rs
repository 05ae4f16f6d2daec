//! The one table of `ABR_*` environment knobs.
//!
//! Every environment variable the workspace reads is declared here once,
//! as a [`Knob`] const listed in [`KNOBS`], and read through a method on
//! that const. The contract is the same for all of them: an unset knob
//! takes its default, and a set-but-invalid one panics with a message
//! that names the variable, so a typo in a benchmark invocation can never
//! degrade into a silent default.
//!
//! The eight integer knobs share one reader, [`Knob::positive`]. Value
//! grammars stay in the crates that own their meaning
//! (`TopologyKind::parse`, `FabricSpec::parse`, `FaultPlan::parse`,
//! [`crate::TraceConfig::parse`], the tenant load factor) and are handed
//! to [`Knob::read`]. Where a knob has a literal default, the readers
//! parse the table's `default` text, so code and docs share one copy.
//!
//! README's "Environment variables" table is [`markdown_table`]'s output,
//! pinned byte for byte by a test. Nothing else in the workspace reads
//! the environment: the root `clippy.toml` disallows `std::env::var` and
//! `std::env::var_os` everywhere but here.

use std::env::VarError;
use std::str::FromStr;

/// One environment knob: its name and the documentation the README table
/// is rendered from.
#[derive(Debug)]
pub struct Knob {
    /// The environment variable.
    pub name: &'static str,
    /// The values it accepts ([`POSITIVE_INTEGER`] for the integer knobs).
    pub values: &'static str,
    /// The value an unset knob takes, in the knob's own grammar; the
    /// `*_or_default` readers parse this text. `None` when the fallback
    /// is computed or differs per consumer (`doc` says what happens).
    pub default: Option<&'static str>,
    /// The binaries or functions that read it.
    pub consumed_by: &'static str,
    /// What it controls.
    pub doc: &'static str,
}

/// [`Knob::values`] of the knobs read through [`Knob::positive`].
pub const POSITIVE_INTEGER: &str = "positive integer";

/// Iterations per figure config point.
pub const ITERS: Knob = Knob {
    name: "ABR_ITERS",
    values: POSITIVE_INTEGER,
    default: Some("300"),
    consumed_by: "figure binaries except `tenant_figure`",
    doc: "iterations per config point",
};

/// Sweep worker threads.
pub const JOBS: Knob = Knob {
    name: "ABR_JOBS",
    values: POSITIVE_INTEGER,
    default: None,
    consumed_by: "figure binaries (`abr_cluster::sweep`)",
    doc: "sweep worker-thread count; unset: all available cores; `1` runs \
          sequentially with no threads",
};

/// Output path of the one `BENCH_*.json` record a figure binary writes.
pub const RECORD_JSON: Knob = Knob {
    name: "ABR_RECORD_JSON",
    values: "non-empty path",
    default: None,
    consumed_by: "every figure binary that writes a record (`abr_bench::record`)",
    doc: "path of the `BENCH_*.json` record the binary writes; unset: \
          `BENCH_sweep.json` from `all_figures`, `ablations` and `loss_figure`, \
          `BENCH_<name>.json` from `scale_figure`, `fabric_figure`, \
          `bandwidth_figure` and `tenant_figure`; an unwritable path fails the run",
};

/// The fault plan `loss_figure` runs instead of its loss ladder.
pub const FAULTS: Knob = Knob {
    name: "ABR_FAULTS",
    values: "fault-plan DSL, e.g. `seed=7; drop p=0.01`, or `@PATH` to a plan file",
    default: None,
    consumed_by: "`loss_figure`",
    doc: "runs that one plan and prints its reliability counters; unset: the \
          0–2% loss ladder",
};

/// Tracing configuration for `trace_figure`.
pub const TRACE: Knob = Knob {
    name: "ABR_TRACE",
    values: "`0`/`off`/`false`, `1`/`on`/`true`, or `chrome[=PATH],report[=PATH],cap=N`",
    default: Some("on"),
    consumed_by: "`trace_figure`",
    doc: "which trace artifacts to write and the per-rank ring capacity; \
          `0` writes none",
};

/// Reduction-tree family.
pub const TOPO: Knob = Knob {
    name: "ABR_TOPO",
    values: "`binomial`, `knomial<k>`, `chain`, `chainrev`, `flat`, `bine`, \
             `locality[<R>x<P>][:cyclic|:blocked]`",
    default: Some("binomial"),
    consumed_by: "`ClusterSpec` constructors",
    doc: "reduction-tree family",
};

/// DES executor shard count.
pub const DES_SHARDS: Knob = Knob {
    name: "ABR_DES_SHARDS",
    values: POSITIVE_INTEGER,
    default: Some("1"),
    consumed_by: "`DesDriver::run`",
    doc: "shard count of the conservative window executor (above 1, one \
          worker thread per shard); results are identical to the knob unset; \
          runs one shard (with one notice per process) when faults, \
          multi-tenant state or tracing are installed, and panics above 1 on \
          a contended fabric",
};

/// Largest cluster the scale and fabric sweeps reach.
pub const SCALE_MAX: Knob = Knob {
    name: "ABR_SCALE_MAX",
    values: POSITIVE_INTEGER,
    default: Some("65536"),
    consumed_by: "`scale_figure`, `fabric_figure`",
    doc: "largest cluster the scale and fabric sweeps reach (the fabric sweep \
          stops at 8192 anyway); CI smoke caps it",
};

/// Interconnect model.
pub const FABRIC: Knob = Knob {
    name: "ABR_FABRIC",
    values: "`flat`, or `(fattree|dragonfly)[:<ratio>][:blocked|:cyclic]` \
             (ratio >= 1, default 4; placement default cyclic)",
    default: Some("flat"),
    consumed_by: "`ClusterSpec` constructors, `fabric_figure`",
    doc: "interconnect model: the ideal crossbar, or a contended fabric whose \
          uplinks are oversubscribed by the ratio and whose shared links \
          serialize packets (one executor shard only); `fabric_figure` \
          alone defaults to `fattree:4:cyclic`",
};

/// Pipeline window for segmented large-message reductions.
pub const SEGMENTS: Knob = Knob {
    name: "ABR_SEGMENTS",
    values: POSITIVE_INTEGER,
    default: Some("1"),
    consumed_by: "`ClusterSpec` constructors, `bandwidth_figure`",
    doc: "segments in flight per segmented collective; `1` turns segmentation \
          off; `bandwidth_figure` alone defaults to `8`",
};

/// Jobs in the tenant mix at offered load 1.
pub const TENANT_JOBS: Knob = Knob {
    name: "ABR_TENANT_JOBS",
    values: POSITIVE_INTEGER,
    default: Some("2"),
    consumed_by: "`tenant_figure`",
    doc: "jobs co-scheduled at offered load 1; each ladder point runs \
          `ceil(jobs × load)`",
};

/// Cap on the tenant figure's offered-load ladder.
pub const TENANT_LOAD: Knob = Knob {
    name: "ABR_TENANT_LOAD",
    values: "positive finite load factor",
    default: None,
    consumed_by: "`tenant_figure`",
    doc: "cap on the offered-load ladder; the cluster is sized for the capped \
          top, so the last point is always saturated; unset: the full ladder \
          up to 8",
};

/// Ranks one node hosts in the tenant figure.
pub const TENANT_SLOTS: Knob = Knob {
    name: "ABR_TENANT_SLOTS",
    values: POSITIVE_INTEGER,
    default: Some("4"),
    consumed_by: "`tenant_figure`",
    doc: "ranks one node hosts at saturation",
};

/// Largest message the bandwidth sweep reaches.
pub const MSG_BYTES: Knob = Knob {
    name: "ABR_MSG_BYTES",
    values: POSITIVE_INTEGER,
    default: Some("67108864"),
    consumed_by: "`bandwidth_figure`",
    doc: "largest message the bandwidth sweep reaches, in bytes (64 MiB); CI \
          smoke caps it at 1 MiB",
};

/// Every knob the workspace reads, in README order.
pub const KNOBS: [&Knob; 14] = [
    &ITERS,
    &JOBS,
    &RECORD_JSON,
    &FAULTS,
    &TRACE,
    &TOPO,
    &DES_SHARDS,
    &SCALE_MAX,
    &FABRIC,
    &SEGMENTS,
    &TENANT_JOBS,
    &TENANT_LOAD,
    &TENANT_SLOTS,
    &MSG_BYTES,
];

impl Knob {
    /// The knob's value parsed by `parse`, or `None` when it is unset.
    ///
    /// # Panics
    /// When the variable is set but `parse` rejects it or it is not
    /// unicode. The message always names the variable: an error that
    /// does not already name it is prefixed with it.
    ///
    /// # Examples
    ///
    /// ```
    /// use abr_trace::knob::Knob;
    ///
    /// const DEMO: Knob = Knob {
    ///     name: "DOCTEST_ABR_KNOB",
    ///     values: "number",
    ///     default: None,
    ///     consumed_by: "this example",
    ///     doc: "a demo",
    /// };
    /// let parse = |raw: &str| raw.parse::<u32>().map_err(|e| e.to_string());
    /// assert_eq!(DEMO.read(parse), None);
    /// std::env::set_var("DOCTEST_ABR_KNOB", "41");
    /// assert_eq!(DEMO.read(parse), Some(41));
    /// std::env::remove_var("DOCTEST_ABR_KNOB");
    /// ```
    pub fn read<T>(&self, parse: impl FnOnce(&str) -> Result<T, String>) -> Option<T> {
        #[allow(clippy::disallowed_methods)] // the one env read in the workspace
        let raw = match std::env::var(self.name) {
            Ok(raw) => raw,
            Err(VarError::NotPresent) => return None,
            Err(VarError::NotUnicode(_)) => panic!("{} is set but is not valid unicode", self.name),
        };
        match parse(&raw) {
            Ok(v) => Some(v),
            Err(e) if e.contains(self.name) => panic!("{e}"),
            Err(e) => panic!("{}: {e}", self.name),
        }
    }

    /// [`Knob::read`], parsing the table's [`Knob::default`] text when the
    /// knob is unset.
    ///
    /// # Panics
    /// As [`Knob::read`], and when the knob has no literal default or
    /// `parse` rejects it (a table bug).
    pub fn read_or_default<T>(&self, parse: impl Fn(&str) -> Result<T, String>) -> T {
        self.read(&parse).unwrap_or_else(|| {
            let default = self
                .default
                .unwrap_or_else(|| panic!("{} has no literal default", self.name));
            parse(default)
                .unwrap_or_else(|e| panic!("{} default {default:?} is invalid: {e}", self.name))
        })
    }

    /// The knob as a positive integer, or `None` when it is unset.
    ///
    /// # Panics
    /// When the value is set but is not a positive integer of type `T`
    /// (surrounding whitespace is ignored).
    pub fn positive<T: FromStr + Default + PartialOrd>(&self) -> Option<T> {
        self.read(|raw| self.parse_positive(raw))
    }

    /// [`Knob::positive`], parsing the table's default when unset.
    pub fn positive_or_default<T: FromStr + Default + PartialOrd>(&self) -> T {
        self.read_or_default(|raw| self.parse_positive(raw))
    }

    /// Parses `raw` as this knob's positive integer: the grammar behind
    /// [`Knob::positive`], without reading the environment. An error names
    /// the knob.
    pub fn parse_positive<T: FromStr + Default + PartialOrd>(
        &self,
        raw: &str,
    ) -> Result<T, String> {
        debug_assert_eq!(
            self.values, POSITIVE_INTEGER,
            "{} is not an integer knob",
            self.name
        );
        match raw.trim().parse::<T>() {
            Ok(n) if n > T::default() => Ok(n),
            _ => Err(format!(
                "{} must be a positive integer, got {raw:?}",
                self.name
            )),
        }
    }
}

/// README's "Environment variables" table, one row per entry of
/// [`KNOBS`].
pub fn markdown_table() -> String {
    let cell = |text: &str| text.replace('|', "\\|");
    let mut table = String::from(
        "| variable | consumed by | values | default | meaning |\n|---|---|---|---|---|\n",
    );
    for knob in KNOBS {
        let default = knob.default.map_or("—".to_string(), |d| format!("`{d}`"));
        table.push_str(&format!(
            "| `{}` | {} | {} | {default} | {} |\n",
            knob.name,
            cell(knob.consumed_by),
            cell(knob.values),
            cell(knob.doc)
        ));
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic;

    /// The panic message of `f`, which must panic.
    fn panic_message(f: impl FnOnce() + panic::UnwindSafe) -> String {
        let err = panic::catch_unwind(f).expect_err("expected a panic");
        err.downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default()
    }

    #[test]
    fn integer_knobs_name_themselves_and_parse_their_defaults() {
        let integer: Vec<&Knob> = KNOBS
            .into_iter()
            .filter(|k| k.values == POSITIVE_INTEGER)
            .collect();
        assert_eq!(integer.len(), 8);
        for knob in integer {
            for bad in ["", "0", "-1", "x"] {
                std::env::set_var(knob.name, bad);
                let msg = panic_message(|| {
                    knob.positive::<u64>();
                });
                assert!(msg.contains(knob.name), "{}={bad:?}: {msg}", knob.name);
            }
            std::env::set_var(knob.name, " 16 ");
            assert_eq!(knob.positive::<u64>(), Some(16), "{}", knob.name);
            assert_eq!(knob.positive_or_default::<u64>(), 16, "{}", knob.name);
            std::env::remove_var(knob.name);
            assert_eq!(knob.positive::<u64>(), None, "{}", knob.name);
            if let Some(default) = knob.default {
                let expected: u64 = default.parse().expect("integer default");
                assert_eq!(knob.positive_or_default::<u64>(), expected, "{}", knob.name);
            }
        }
    }

    #[test]
    fn table_has_one_row_per_knob_and_unique_names() {
        assert_eq!(KNOBS.len(), 14);
        let mut names: Vec<&str> = KNOBS.iter().map(|k| k.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), KNOBS.len());
        assert!(names.iter().all(|n| n.starts_with("ABR_")));
        assert_eq!(markdown_table().lines().count(), KNOBS.len() + 2);
    }

    #[test]
    fn parse_errors_are_prefixed_with_the_name() {
        const DEMO: Knob = Knob {
            name: "ABR_KNOB_UNIT_TEST",
            values: "anything but `bad`",
            default: Some("fine"),
            consumed_by: "this test",
            doc: "",
        };
        let parse = |raw: &str| match raw {
            "bad" => Err("not a value".to_string()),
            ok => Ok(ok.to_string()),
        };
        assert_eq!(DEMO.read_or_default(parse), "fine");
        std::env::set_var(DEMO.name, "bad");
        let msg = panic_message(|| {
            DEMO.read(parse);
        });
        assert_eq!(msg, "ABR_KNOB_UNIT_TEST: not a value");
        std::env::remove_var(DEMO.name);
    }
}
