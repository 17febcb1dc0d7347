//! End-to-end tests of the `scale` paper-scale driver CLI.

use std::process::Command;

fn scale() -> Command {
    Command::new(env!("CARGO_BIN_EXE_scale"))
}

#[test]
fn oracle_window_beyond_the_tag_index_range_is_rejected() {
    for bad in ["0", "65537", "1000000", "x"] {
        let out = scale()
            .args(["--target", "2k", "--oracle-window", bad])
            .output()
            .expect("run scale");
        assert!(!out.status.success(), "--oracle-window {bad}: {out:?}");
        assert!(out.stdout.is_empty(), "--oracle-window {bad}");
        let err = String::from_utf8_lossy(&out.stderr);
        let first = err.lines().next().unwrap_or_default();
        assert_eq!(
            first, "error: --oracle-window needs a length in 1..=65536",
            "--oracle-window {bad}"
        );
        assert!(err.contains("usage:"), "{err}");
    }
}

#[test]
fn largest_oracle_window_is_accepted() {
    let out = scale()
        .args([
            "--target",
            "2k",
            "--jobs",
            "1",
            "--skip-oracle",
            "--oracle-window",
            "65536",
        ])
        .output()
        .expect("run scale");
    assert!(out.status.success(), "{out:?}");
}
