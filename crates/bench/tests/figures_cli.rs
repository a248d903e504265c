//! The `figures` name → function table and the binary's command line.

use std::process::Command;

use lpbcast_bench::figures::{select, FIGURES};

fn names_of(args: &[&str]) -> Result<Vec<&'static str>, Vec<String>> {
    let args: Vec<String> = args.iter().map(|&arg| arg.into()).collect();
    select(&args).map(|entries| entries.into_iter().map(|(name, _)| name).collect())
}

fn figures_bin(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .output()
        .expect("figures binary runs")
}

#[test]
fn table_names_are_unique() {
    let mut names: Vec<&str> = FIGURES.iter().map(|&(name, _)| name).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), FIGURES.len());
    assert!(!names.contains(&"all"), "`all` is reserved");
}

#[test]
fn every_former_binary_name_resolves() {
    for name in [
        "fig2",
        "fig3a",
        "fig3b",
        "fig4",
        "fig5a",
        "fig5b",
        "fig6a",
        "fig6b",
        "fig7a",
        "fig7b",
        "ablation_membership_freq",
        "ablation_weighted_views",
        "model_vs_sim",
    ] {
        assert_eq!(names_of(&[name]), Ok(vec![name]));
    }
}

#[test]
fn named_figures_run_in_the_order_given() {
    assert_eq!(names_of(&["fig7a", "fig2"]), Ok(vec!["fig7a", "fig2"]));
    assert_eq!(names_of(&[]), Ok(vec![]));
}

#[test]
fn list_order_is_all_order() {
    let table: Vec<&str> = FIGURES.iter().map(|&(name, _)| name).collect();
    assert_eq!(names_of(&["all"]).as_ref(), Ok(&table));
    assert_eq!(names_of(&["fig7a", "all"]).as_ref(), Ok(&table));

    let out = figures_bin(&["--list"]);
    assert!(out.status.success());
    let listed = String::from_utf8(out.stdout).expect("utf-8");
    assert_eq!(listed.lines().collect::<Vec<_>>(), table);
}

#[test]
fn unknown_names_are_reported_not_skipped() {
    assert_eq!(
        names_of(&["fig2", "fig9", "all", "nope"]),
        Err(vec!["fig9".to_string(), "nope".to_string()])
    );
}

#[test]
fn unknown_figure_exits_2_and_prints_the_table() {
    for args in [&["fig2", "fig9"][..], &[]] {
        let out = figures_bin(args);
        assert_eq!(out.status.code(), Some(2), "args {args:?}");
        assert!(out.stdout.is_empty(), "no figure ran for {args:?}");
        let stderr = String::from_utf8(out.stderr).expect("utf-8");
        for (name, _) in FIGURES {
            assert!(stderr.contains(name), "{name} missing from:\n{stderr}");
        }
    }
    let stderr = String::from_utf8(figures_bin(&["fig9"]).stderr).expect("utf-8");
    assert!(stderr.contains("unknown figure \"fig9\""), "{stderr}");
}
