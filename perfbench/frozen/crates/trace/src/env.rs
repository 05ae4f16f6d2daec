//! `ABR_TRACE` configuration and the shared fail-fast env-var helper.
//!
//! Every `ABR_*` knob in the workspace follows the same contract: an
//! unset variable means "use the default"; a set-but-invalid value
//! aborts immediately with a message that names the variable, instead
//! of silently falling back and producing a misleading benchmark run.
//! [`parse_env`] centralizes that contract so each binary stops
//! re-implementing it.

use std::env::VarError;

/// Read `name` from the environment and parse it fail-fast.
///
/// Returns `None` when the variable is unset. When it is set, `parse`
/// must accept the raw string or return an error message *naming the
/// variable*; any error (or a non-unicode value) panics, so a typo in a
/// benchmark invocation can never degrade into a silent default.
///
/// # Examples
///
/// ```
/// use abr_trace::parse_env;
///
/// std::env::set_var("DOCTEST_ABR_KNOB", "41");
/// let v: Option<u32> = parse_env("DOCTEST_ABR_KNOB", |raw| {
///     raw.parse().map_err(|_| format!("DOCTEST_ABR_KNOB must be a number, got {raw:?}"))
/// });
/// assert_eq!(v, Some(41));
/// std::env::remove_var("DOCTEST_ABR_KNOB");
/// assert_eq!(parse_env("DOCTEST_ABR_KNOB", |_| Ok(0u32)), None);
/// ```
pub fn parse_env<T>(
    name: &'static str,
    parse: impl FnOnce(&str) -> Result<T, String>,
) -> Option<T> {
    match std::env::var(name) {
        Ok(raw) => match parse(&raw) {
            Ok(v) => Some(v),
            Err(e) => panic!("{e}"),
        },
        Err(VarError::NotPresent) => None,
        Err(VarError::NotUnicode(_)) => panic!("{name} is set but is not valid unicode"),
    }
}

/// Parsed `ABR_TRACE` configuration.
///
/// Syntax (comma-separated `key[=value]`, case-sensitive):
///
/// | value                | meaning                                          |
/// |----------------------|--------------------------------------------------|
/// | `0` / `off` / `false`| tracing disabled (same as unset)                 |
/// | `1` / `on` / `true`  | tracing on with default outputs                  |
/// | `chrome[=PATH]`      | write Chrome trace JSON (default `TRACE_events.json`) |
/// | `report[=PATH]`      | write the CPU-attribution table (default `TRACE_cpu.txt`) |
/// | `cap=N`              | per-rank ring capacity in events (default 65536) |
///
/// `chrome`/`report`/`cap` keys imply tracing on and may be combined:
/// `ABR_TRACE=chrome=run.json,cap=200000`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceConfig {
    /// Where to write Chrome `trace_event` JSON, if anywhere.
    pub chrome_path: Option<String>,
    /// Where to write the CPU-attribution report, if anywhere.
    pub report_path: Option<String>,
    /// Per-rank ring capacity in events.
    pub capacity: usize,
}

impl Default for TraceConfig {
    /// Tracing on, both exporters at their default paths, 65536-event
    /// rings.
    fn default() -> Self {
        TraceConfig {
            chrome_path: Some("TRACE_events.json".to_string()),
            report_path: Some("TRACE_cpu.txt".to_string()),
            capacity: 1 << 16,
        }
    }
}

impl TraceConfig {
    /// Parse an `ABR_TRACE` value. `Ok(None)` means explicitly
    /// disabled; errors name `ABR_TRACE` per the fail-fast contract.
    ///
    /// # Examples
    ///
    /// ```
    /// use abr_trace::TraceConfig;
    ///
    /// assert_eq!(TraceConfig::parse("off").unwrap(), None);
    /// let cfg = TraceConfig::parse("chrome=run.json,cap=1000").unwrap().unwrap();
    /// assert_eq!(cfg.chrome_path.as_deref(), Some("run.json"));
    /// assert_eq!(cfg.report_path, None);
    /// assert_eq!(cfg.capacity, 1000);
    /// assert!(TraceConfig::parse("cap=zero").unwrap_err().contains("ABR_TRACE"));
    /// ```
    pub fn parse(raw: &str) -> Result<Option<TraceConfig>, String> {
        let raw = raw.trim();
        match raw {
            "" => {
                return Err(
                    "ABR_TRACE is set but empty; use 1/on, 0/off, or key=value settings"
                        .to_string(),
                )
            }
            "0" | "off" | "false" => return Ok(None),
            "1" | "on" | "true" => return Ok(Some(TraceConfig::default())),
            _ => {}
        }
        let mut cfg = TraceConfig {
            chrome_path: None,
            report_path: None,
            capacity: 1 << 16,
        };
        for part in raw.split(',') {
            let part = part.trim();
            let (key, val) = match part.split_once('=') {
                Some((k, v)) => (k.trim(), Some(v.trim())),
                None => (part, None),
            };
            match key {
                "chrome" => {
                    cfg.chrome_path = Some(
                        val.filter(|v| !v.is_empty())
                            .unwrap_or("TRACE_events.json")
                            .to_string(),
                    );
                }
                "report" => {
                    cfg.report_path = Some(
                        val.filter(|v| !v.is_empty())
                            .unwrap_or("TRACE_cpu.txt")
                            .to_string(),
                    );
                }
                "cap" => {
                    let v =
                        val.ok_or_else(|| format!("ABR_TRACE: cap needs a value, got {part:?}"))?;
                    let n: usize = v.parse().map_err(|_| {
                        format!("ABR_TRACE: cap must be a positive event count, got {v:?}")
                    })?;
                    if n == 0 {
                        return Err("ABR_TRACE: cap must be at least 1".to_string());
                    }
                    cfg.capacity = n;
                }
                _ => {
                    return Err(format!(
                        "ABR_TRACE: unknown setting {key:?} (expected chrome[=PATH], report[=PATH], or cap=N)"
                    ));
                }
            }
        }
        Ok(Some(cfg))
    }

    /// Read `ABR_TRACE` from the environment. `None` when unset or
    /// explicitly disabled; panics (naming the variable) on an invalid
    /// value.
    pub fn from_env() -> Option<TraceConfig> {
        parse_env("ABR_TRACE", TraceConfig::parse).flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn on_off_shorthands() {
        for on in ["1", "on", "true"] {
            assert_eq!(
                TraceConfig::parse(on).unwrap(),
                Some(TraceConfig::default())
            );
        }
        for off in ["0", "off", "false"] {
            assert_eq!(TraceConfig::parse(off).unwrap(), None);
        }
    }

    #[test]
    fn keys_compose_and_default_paths_fill_in() {
        let cfg = TraceConfig::parse("chrome,report=cpu.txt,cap=42")
            .unwrap()
            .unwrap();
        assert_eq!(cfg.chrome_path.as_deref(), Some("TRACE_events.json"));
        assert_eq!(cfg.report_path.as_deref(), Some("cpu.txt"));
        assert_eq!(cfg.capacity, 42);
    }

    #[test]
    fn errors_name_the_variable() {
        for bad in ["", "cap=0", "cap=x", "cap", "bogus", "chrome=a,whee"] {
            let err = TraceConfig::parse(bad).unwrap_err();
            assert!(
                err.contains("ABR_TRACE"),
                "error for {bad:?} must name ABR_TRACE: {err}"
            );
        }
    }
}
