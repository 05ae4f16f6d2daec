//! `abr_bench` — figure regeneration and ablations.
//!
//! One function per figure in the paper's evaluation (§VI). Each returns
//! printable tables with the same series the paper plots; the `src/bin/`
//! binaries print them and write one `BENCH_*.json` record each (see
//! [`record`]).
//!
//! Iteration counts default to a few hundred (the paper used 10,000 on real
//! hardware); override with the `ABR_ITERS` environment variable. Shapes —
//! who wins, by what factor, where the crossovers sit — are the
//! reproduction target, not absolute microseconds.

#![warn(missing_docs)]

pub mod figures;
pub mod record;

/// Iterations per configuration, from `ABR_ITERS` (default 300).
///
/// # Panics
/// Panics on a set-but-invalid `ABR_ITERS` (non-numeric or zero) — a typo'd
/// iteration count must not silently run the default.
pub fn iters() -> u64 {
    abr_trace::parse_env("ABR_ITERS", parse_iters).unwrap_or(300)
}

/// Parse an explicit `ABR_ITERS` value: a positive iteration count.
pub fn parse_iters(raw: &str) -> Result<u64, String> {
    match raw.trim().parse::<u64>() {
        Ok(0) => Err("ABR_ITERS must be a positive iteration count, got 0".to_string()),
        Ok(n) => Ok(n),
        Err(_) => Err(format!(
            "ABR_ITERS must be a positive iteration count, got {raw:?}"
        )),
    }
}

/// Largest cluster the scale figure sweeps, from `ABR_SCALE_MAX`
/// (default 65,536). CI caps this to keep the smoke run fast.
///
/// # Panics
/// Panics on a set-but-invalid `ABR_SCALE_MAX` (non-numeric or zero).
pub fn scale_max() -> u32 {
    abr_trace::parse_env("ABR_SCALE_MAX", parse_scale_max).unwrap_or(65_536)
}

/// Parse an explicit `ABR_SCALE_MAX` value: a positive rank count.
pub fn parse_scale_max(raw: &str) -> Result<u32, String> {
    match raw.trim().parse::<u32>() {
        Ok(0) => Err("ABR_SCALE_MAX must be a positive rank count, got 0".to_string()),
        Ok(n) => Ok(n),
        Err(_) => Err(format!(
            "ABR_SCALE_MAX must be a positive rank count, got {raw:?}"
        )),
    }
}

/// Largest message the bandwidth figure sweeps, in bytes, from
/// `ABR_MSG_BYTES` (default 64 MiB). CI caps this to keep the smoke run
/// fast.
///
/// # Panics
/// Panics on a set-but-invalid `ABR_MSG_BYTES` (non-numeric or zero).
pub fn msg_bytes() -> usize {
    abr_trace::parse_env("ABR_MSG_BYTES", parse_msg_bytes).unwrap_or(64 * 1024 * 1024)
}

/// Parse an explicit `ABR_MSG_BYTES` value: a positive byte count.
pub fn parse_msg_bytes(raw: &str) -> Result<usize, String> {
    match raw.trim().parse::<usize>() {
        Ok(0) => Err("ABR_MSG_BYTES must be a positive byte count, got 0".to_string()),
        Ok(n) => Ok(n),
        Err(_) => Err(format!(
            "ABR_MSG_BYTES must be a positive byte count, got {raw:?}"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_scale_max_accepts_positive_and_rejects_junk() {
        assert_eq!(parse_scale_max("65536"), Ok(65_536));
        assert_eq!(parse_scale_max(" 1024 "), Ok(1024));
        for bad in ["0", "", "big", "-1"] {
            let err = parse_scale_max(bad).unwrap_err();
            assert!(err.contains("ABR_SCALE_MAX"), "{bad:?}: {err}");
        }
    }

    #[test]
    fn parse_msg_bytes_accepts_positive_and_rejects_junk() {
        assert_eq!(parse_msg_bytes("67108864"), Ok(67_108_864));
        assert_eq!(parse_msg_bytes(" 1024 "), Ok(1024));
        for bad in ["0", "", "64M", "-1"] {
            let err = parse_msg_bytes(bad).unwrap_err();
            assert!(err.contains("ABR_MSG_BYTES"), "{bad:?}: {err}");
        }
    }

    #[test]
    fn parse_iters_accepts_positive_and_rejects_junk() {
        assert_eq!(parse_iters("300"), Ok(300));
        assert_eq!(parse_iters(" 40 "), Ok(40));
        for bad in ["0", "", "many", "-3", "1e3"] {
            let err = parse_iters(bad).unwrap_err();
            assert!(err.contains("ABR_ITERS"), "{bad}: {err}");
        }
    }
}
