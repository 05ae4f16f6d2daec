//! `abr_bench` — figure regeneration and ablations.
//!
//! One function per figure in the paper's evaluation (§VI). Each returns
//! printable tables with the same series the paper plots; the `src/bin/`
//! binaries print them and write one `BENCH_*.json` record each (see
//! [`record`]).
//!
//! Iteration counts default to a few hundred (the paper used 10,000 on real
//! hardware); override with the `ABR_ITERS` knob ([`abr_trace::knob::ITERS`]).
//! Shapes — who wins, by what factor, where the crossovers sit — are the
//! reproduction target, not absolute microseconds.

#![warn(missing_docs)]

pub mod figures;
pub mod record;

#[cfg(test)]
mod tests {
    use abr_trace::knob::{ITERS, MSG_BYTES, SCALE_MAX};

    #[test]
    fn parse_scale_max_accepts_positive_and_rejects_junk() {
        assert_eq!(SCALE_MAX.parse_positive::<u32>("65536"), Ok(65_536));
        assert_eq!(SCALE_MAX.parse_positive::<u32>(" 1024 "), Ok(1024));
        for bad in ["0", "", "big", "-1"] {
            let err = SCALE_MAX.parse_positive::<u32>(bad).unwrap_err();
            assert!(err.contains("ABR_SCALE_MAX"), "{bad:?}: {err}");
        }
    }

    #[test]
    fn parse_msg_bytes_accepts_positive_and_rejects_junk() {
        assert_eq!(
            MSG_BYTES.parse_positive::<usize>("67108864"),
            Ok(67_108_864)
        );
        assert_eq!(MSG_BYTES.parse_positive::<usize>(" 1024 "), Ok(1024));
        for bad in ["0", "", "64M", "-1"] {
            let err = MSG_BYTES.parse_positive::<usize>(bad).unwrap_err();
            assert!(err.contains("ABR_MSG_BYTES"), "{bad:?}: {err}");
        }
    }

    #[test]
    fn parse_iters_accepts_positive_and_rejects_junk() {
        assert_eq!(ITERS.parse_positive::<u64>("300"), Ok(300));
        assert_eq!(ITERS.parse_positive::<u64>(" 40 "), Ok(40));
        for bad in ["0", "", "many", "-3", "1e3"] {
            let err = ITERS.parse_positive::<u64>(bad).unwrap_err();
            assert!(err.contains("ABR_ITERS"), "{bad}: {err}");
        }
    }
}
