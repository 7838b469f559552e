//! The scalable benchmark systems-on-chip of the DSN'03 paper.
//!
//! Two families of fault-tolerant systems-on-chip are generated, matching
//! Section 3 of the paper:
//!
//! * [`mod@ms`] — the `MSn` master/slave architecture: two master IP cores and
//!   `n` clusters of two slave IP cores, interconnected through
//!   communication modules attached to two redundant buses
//!   (`C = 6 + 6n` components);
//! * [`mod@esen`] — the `ESEN n×m` architecture: IP cores attached through
//!   concentrators to an extra-stage shuffle-exchange interconnection
//!   network whose first- and last-stage switching elements are duplicated
//!   (`C` matches Table 1 of the paper exactly: 14, 26, 34, 32, 56, 72 for
//!   ESEN4x1 … ESEN8x4).
//!
//! Each generator produces a [`BenchmarkSystem`]: the gate-level fault tree
//! `F` (value 1 ⇔ system not functioning) over one input variable per
//! component, the component names, and the relative defect-sensitivity
//! weights used to derive the `P_i` probabilities.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod esen;
pub mod ms;
pub mod system;

pub use esen::esen;
pub use ms::ms;
pub use system::BenchmarkSystem;

/// The names of the benchmark instances evaluated by the paper (Table 1),
/// in the order of the paper's tables: MS2 … MS10 followed by
/// ESEN4x1 … ESEN8x4.
pub const PAPER_BENCHMARK_NAMES: [&str; 11] = [
    "MS2", "MS4", "MS6", "MS8", "MS10", "ESEN4x1", "ESEN4x2", "ESEN4x4", "ESEN8x1", "ESEN8x2",
    "ESEN8x4",
];

/// Builds the paper benchmark named `name` (one of
/// [`PAPER_BENCHMARK_NAMES`]) without building the others, or `None` for
/// an unknown name.
pub fn paper_benchmark(name: &str) -> Option<BenchmarkSystem> {
    Some(match name {
        "MS2" => ms(2),
        "MS4" => ms(4),
        "MS6" => ms(6),
        "MS8" => ms(8),
        "MS10" => ms(10),
        "ESEN4x1" => esen(4, 1),
        "ESEN4x2" => esen(4, 2),
        "ESEN4x4" => esen(4, 4),
        "ESEN8x1" => esen(8, 1),
        "ESEN8x2" => esen(8, 2),
        "ESEN8x4" => esen(8, 4),
        _ => return None,
    })
}

/// The benchmark instances evaluated by the paper (Table 1), in the order
/// of [`PAPER_BENCHMARK_NAMES`].
pub fn paper_benchmarks() -> Vec<BenchmarkSystem> {
    PAPER_BENCHMARK_NAMES
        .iter()
        .map(|name| paper_benchmark(name).expect("every listed name has a constructor"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_component_counts_match_table_1() {
        let expected = [
            ("MS2", 18),
            ("MS4", 30),
            ("MS6", 42),
            ("MS8", 54),
            ("MS10", 66),
            ("ESEN4x1", 14),
            ("ESEN4x2", 26),
            ("ESEN4x4", 34),
            ("ESEN8x1", 32),
            ("ESEN8x2", 56),
            ("ESEN8x4", 72),
        ];
        let systems = paper_benchmarks();
        assert_eq!(systems.len(), expected.len());
        for (system, (name, count)) in systems.iter().zip(expected.iter()) {
            assert_eq!(&system.name, name);
            assert_eq!(system.num_components(), *count, "{name}");
        }
        for name in PAPER_BENCHMARK_NAMES {
            assert_eq!(paper_benchmark(name).map(|b| b.name).as_deref(), Some(name));
        }
        assert!(paper_benchmark("MS99").is_none());
    }

    #[test]
    fn all_benchmarks_have_consistent_metadata() {
        for system in paper_benchmarks() {
            assert_eq!(system.component_names.len(), system.num_components());
            assert_eq!(system.weights.len(), system.num_components());
            assert!(system.num_gates() > 0, "{}", system.name);
            assert!(system.fault_tree.output().is_ok(), "{}", system.name);
            // All component names are unique.
            let mut names = system.component_names.clone();
            names.sort();
            names.dedup();
            assert_eq!(names.len(), system.num_components(), "{}", system.name);
        }
    }
}
