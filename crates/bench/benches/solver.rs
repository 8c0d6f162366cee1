//! Micro-benchmarks of the allocation solver: the per-epoch cost of the
//! exact engine, the grid engine, and `solve` (the exact engine at these
//! sizes, plus the allocation audit) for 2-, 3- and 5-type racks (the
//! paper bounds racks at 3 types; 5 stresses headroom).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use greenhetero_core::database::{PerfModel, Quadratic};
use greenhetero_core::solver::{solve, solve_exact, solve_grid, AllocationProblem, ServerGroup};
use greenhetero_core::types::{ConfigId, PowerRange, Watts};
use std::hint::black_box;

fn problem(types: u32) -> AllocationProblem {
    let groups: Vec<ServerGroup> = (0..types)
        .map(|i| {
            let idle = 40.0 + f64::from(i) * 12.0;
            let peak = 90.0 + f64::from(i) * 22.0;
            ServerGroup::new(
                ConfigId::new(i),
                5,
                PerfModel::new(
                    Quadratic {
                        l: -500.0 - f64::from(i) * 100.0,
                        m: 30.0 + f64::from(i) * 5.0,
                        n: -0.06 - f64::from(i) * 0.01,
                    },
                    PowerRange::new(Watts::new(idle), Watts::new(peak)).unwrap(),
                ),
            )
            .unwrap()
        })
        .collect();
    let budget: f64 = groups.iter().map(|g| g.group_peak().value()).sum::<f64>() * 0.7;
    AllocationProblem::new(groups, Watts::new(budget)).unwrap()
}

fn bench_solver(c: &mut Criterion) {
    let mut group = c.benchmark_group("solver");
    for types in [2u32, 3, 5] {
        let p = problem(types);
        group.bench_with_input(BenchmarkId::new("exact", types), &p, |b, p| {
            b.iter(|| solve_exact(black_box(p)).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("grid", types), &p, |b, p| {
            b.iter(|| solve_grid(black_box(p)))
        });
        group.bench_with_input(BenchmarkId::new("combined", types), &p, |b, p| {
            b.iter(|| solve(black_box(p)).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_solver);
criterion_main!(benches);
