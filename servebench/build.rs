//! Records the compiler version and, when built inside a git checkout,
//! the commit, for the environment line of every report.

use std::process::Command;

fn output(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = output(&rustc, &["--version"]).unwrap_or_else(|| "unknown".into());
    let commit = output("git", &["rev-parse", "--short=12", "HEAD"])
        .unwrap_or_else(|| "unknown (not a git checkout)".into());
    println!("cargo:rustc-env=SERVEBENCH_RUSTC={version}");
    println!("cargo:rustc-env=SERVEBENCH_COMMIT={commit}");
    println!("cargo:rerun-if-changed=build.rs");
}
