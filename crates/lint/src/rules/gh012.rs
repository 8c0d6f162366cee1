//! GH012: no direct thread spawning outside the scheduler allowlist.
//!
//! The scheduler (DESIGN.md §15) is the codebase's one source of
//! execution parallelism: serve sessions are poll-able tasks on a
//! bounded run-queue pool, and fleet epochs and sweeps run on a
//! scoped executor bounded by its worker count, so the process thread
//! count is a structural invariant (`workers + fixed supervision
//! overhead`) rather than a function of load. A stray `thread::spawn`
//! reintroduces thread-per-work-item scaling behind the scheduler's back
//! and silently voids the thread-budget gates in `BENCH_fleet.json`. The
//! rule bans `thread::spawn`, `thread::Builder`, `thread::scope`, and
//! `scope.spawn(..)` in crate library code everywhere except the files
//! named by [`is_thread_spawn_site`] — the scheduler itself and the
//! supervisor/daemon threads that *are* the fixed overhead.
//!
//! [`is_thread_spawn_site`]: crate::is_thread_spawn_site

use crate::diag::Diagnostic;
use crate::lexer::TokenKind;
use crate::model::FileModel;

/// The rule code.
pub const RULE: &str = "GH012";

/// Runs GH012 over one crate source file outside the spawn allowlist.
pub fn check(model: &FileModel, diags: &mut Vec<Diagnostic>) {
    let tokens = &model.tokens;
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokenKind::Ident {
            continue;
        }
        let path_sep = tokens.get(i + 1).map(|n| n.text.as_str()) == Some(":")
            && tokens.get(i + 2).map(|n| n.text.as_str()) == Some(":");
        let what = match t.text.as_str() {
            // `thread::spawn` / `thread::Builder` / `thread::scope`,
            // however the path is qualified (`std::thread::…` lexes to
            // the same `thread :: ident` tail).
            "thread" if path_sep => match tokens.get(i + 3).map(|n| n.text.as_str()) {
                Some("spawn") => "`thread::spawn`",
                Some("Builder") => "`thread::Builder`",
                Some("scope") => "`thread::scope`",
                _ => continue,
            },
            // `scope.spawn(..)` inside a `thread::scope` body — the
            // scope handle is named `scope` everywhere in this codebase,
            // and the `thread::scope` call itself is flagged regardless.
            "scope"
                if tokens.get(i + 1).map(|n| n.text.as_str()) == Some(".")
                    && tokens.get(i + 2).map(|n| n.text.as_str()) == Some("spawn")
                    && tokens.get(i + 3).map(|n| n.text.as_str()) == Some("(") =>
            {
                "`scope.spawn(..)`"
            }
            _ => continue,
        };
        if model.in_test_code(t.line) || model.is_allowed(RULE, t.line) {
            continue;
        }
        diags.push(Diagnostic::new(
            RULE,
            &model.path,
            t.line,
            format!(
                "{what} creates an OS thread outside the scheduler allowlist, breaking the bounded thread budget; run the work on the scheduler (`sched::TaskPool` or `sched::run_epoch_batches`) instead"
            ),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(path: &str, src: &str) -> Vec<Diagnostic> {
        let model = FileModel::build(path, src);
        let mut diags = Vec::new();
        check(&model, &mut diags);
        diags
    }

    #[test]
    fn fixture_fail_is_flagged() {
        let diags = run(
            "crates/serve/src/session.rs",
            include_str!("../../fixtures/gh012_fail.rs"),
        );
        assert!(
            diags.len() >= 4,
            "expected spawn, Builder, scope, and scope.spawn hits: {diags:?}"
        );
        assert!(diags.iter().all(|d| d.rule == RULE));
    }

    #[test]
    fn fixture_pass_is_clean() {
        let diags = run(
            "crates/serve/src/session.rs",
            include_str!("../../fixtures/gh012_pass.rs"),
        );
        assert!(diags.is_empty(), "unexpected: {diags:?}");
    }

    #[test]
    fn qualified_paths_are_caught() {
        let diags = run(
            "crates/core/src/controller.rs",
            "fn f() { let h = std::thread::spawn(|| ()); h.join().ok(); }\n",
        );
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("`thread::spawn`"), "{diags:?}");
    }

    #[test]
    fn other_spawn_methods_are_not_flagged() {
        // The pool's own submit API and non-scope receivers stay clean.
        let diags = run(
            "crates/sim/src/fleet.rs",
            "fn f(pool: &TaskPool) { pool.spawn(Box::new(task)); self.pool.spawn(t); }\n",
        );
        assert!(diags.is_empty(), "unexpected: {diags:?}");
    }

    #[test]
    fn test_code_and_allows_are_exempt() {
        let diags = run(
            "crates/serve/src/client.rs",
            "// greenhetero-lint: allow(GH012) one-shot helper thread in a doc example\nfn f() { std::thread::spawn(|| ()); }\n#[cfg(test)]\nmod tests {\n    fn g() { std::thread::spawn(|| ()); }\n}\n",
        );
        assert!(diags.is_empty(), "unexpected: {diags:?}");
    }
}
