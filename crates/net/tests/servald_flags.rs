//! servald's flags accept exactly what their environment variables
//! accept: a value the variable rejects makes servald exit 2 before it
//! binds anything, naming the flag.

use std::process::Command;

fn servald(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_servald"))
        .args(args)
        .env_remove("SERVAL_SHARDS")
        .env_remove("SERVAL_JOBS")
        .env_remove("SERVAL_MAX_INFLIGHT")
        .output()
        .expect("servald starts");
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn zero_shards_is_refused_naming_the_flag() {
    let (code, stderr) = servald(&["--shards", "0"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("--shards"), "{stderr}");
}

#[test]
fn every_count_flag_is_validated_like_its_variable() {
    for flag in ["--jobs", "--max-inflight"] {
        for bad in ["0", "-1", "two"] {
            let (code, stderr) = servald(&[flag, bad]);
            assert_eq!(code, Some(2), "{flag} {bad}: {stderr}");
            assert!(stderr.contains(flag) && stderr.contains(bad), "{flag} {bad}: {stderr}");
        }
    }
}
