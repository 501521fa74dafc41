//! Reads the execution profile `VectorH::run_physical_public` returns.
//!
//! The profile is text, one operator per line, indented by depth:
//! `Name: time=1.23ms cum_time=4.56ms in=10 out=4 calls=2`. Pipelines that
//! ran behind an exchange appear as `sender N` / `thread N` blocks. An
//! exchange with several consumers repeats its producers' blocks under each
//! consumer, so a block is counted once, by its text.
//!
//! Times are thread time summed over pipelines. The box has fewer cores
//! than a query has pipelines, so read them as shares, not as seconds.

use std::collections::HashSet;

/// Operator classes a layer metric is reported for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpClass {
    MScan,
    Select,
    Project,
    Join,
    Aggr,
    Sort,
    Exchange,
}

pub const OP_CLASSES: [(OpClass, &str); 7] = [
    (OpClass::MScan, "mscan"),
    (OpClass::Select, "select"),
    (OpClass::Project, "project"),
    (OpClass::Join, "join"),
    (OpClass::Aggr, "aggr"),
    (OpClass::Sort, "sort"),
    (OpClass::Exchange, "exchange"),
];

fn classify(name: &str) -> Option<OpClass> {
    Some(match name {
        "MScan" => OpClass::MScan,
        "Select" => OpClass::Select,
        "Project" => OpClass::Project,
        "HashJoin" | "SharedProbe" | "MergeJoin" => OpClass::Join,
        "Sort" | "TopN" | "Limit" => OpClass::Sort,
        n if n.starts_with("Aggr") => OpClass::Aggr,
        n if n.contains("Xchg") => OpClass::Exchange,
        _ => return None,
    })
}

/// What one statement's profile adds up to.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProfileSums {
    /// Self time per [`OP_CLASSES`] entry, milliseconds of thread time.
    pub self_ms: [f64; 7],
    /// Rows MScan produced: the rows the statement examined.
    pub mscan_rows: u64,
    /// Distinct `sender`/`thread` blocks: pipelines that ran on their own thread.
    pub pipelines: u64,
}

struct Line<'a> {
    depth: usize,
    name: &'a str,
    self_ms: f64,
    rows_out: u64,
}

fn field<'a>(rest: &'a str, key: &str) -> Option<&'a str> {
    let from = rest.find(key)? + key.len();
    let tail = &rest[from..];
    Some(tail.split([' ', 'm']).next().unwrap_or(tail))
}

fn parse_line(raw: &str) -> Option<Line<'_>> {
    let trimmed = raw.trim_start();
    let (name, rest) = trimmed.split_once(": time=")?;
    Some(Line {
        depth: (raw.len() - trimmed.len()) / 2,
        name,
        self_ms: rest.split("ms").next()?.parse().ok()?,
        rows_out: field(rest, " out=")?.parse().ok()?,
    })
}

pub fn summarize(profile: &str) -> ProfileSums {
    let raw: Vec<&str> = profile.lines().collect();
    let lines: Vec<Option<Line>> = raw.iter().map(|l| parse_line(l)).collect();
    let mut sums = ProfileSums::default();
    let mut seen: HashSet<String> = HashSet::new();
    let mut i = 0;
    while i < lines.len() {
        let Some(line) = &lines[i] else {
            i += 1;
            continue;
        };
        if line.name.starts_with("sender ") || line.name.starts_with("thread ") {
            let end = (i + 1..lines.len())
                .find(|&j| lines[j].as_ref().is_none_or(|l| l.depth <= line.depth))
                .unwrap_or(lines.len());
            let block: String = raw[i..end].iter().map(|l| l.trim_start()).collect();
            if !seen.insert(block) {
                i = end;
                continue;
            }
            sums.pipelines += 1;
        } else if let Some(class) = classify(line.name) {
            sums.self_ms[class as usize] += line.self_ms;
            if class == OpClass::MScan {
                sums.mscan_rows += line.rows_out;
            }
        }
        i += 1;
    }
    sums
}

#[cfg(test)]
mod tests {
    use super::*;

    const PROFILE: &str = "\
Sort: time=0.04ms cum_time=68.05ms in=4 out=4 calls=2
  DXchgUnion: time=68.01ms cum_time=68.01ms in=4 out=4 calls=5
    sender 0: time=0.00ms cum_time=44.74ms in=0 out=0 calls=0
      Aggr(final): time=0.01ms cum_time=44.72ms in=0 out=0 calls=1
        DXchgHashSplit: time=44.71ms cum_time=44.71ms in=0 out=0 calls=7
          sender 0: time=0.00ms cum_time=67.64ms in=0 out=4 calls=0
            Aggr(partial): time=23.52ms cum_time=67.57ms in=20406 out=4 calls=2
              Select: time=0.40ms cum_time=6.44ms in=20406 out=20406 calls=21
                MScan: time=6.03ms cum_time=6.03ms in=20406 out=20406 calls=20
    sender 1: time=0.00ms cum_time=44.76ms in=0 out=1 calls=0
      Aggr(final): time=0.02ms cum_time=44.75ms in=6 out=1 calls=2
        DXchgHashSplit: time=44.73ms cum_time=44.73ms in=6 out=6 calls=7
          sender 0: time=0.00ms cum_time=67.64ms in=0 out=4 calls=0
            Aggr(partial): time=23.52ms cum_time=67.57ms in=20406 out=4 calls=2
              Select: time=0.40ms cum_time=6.44ms in=20406 out=20406 calls=21
                MScan: time=6.03ms cum_time=6.03ms in=20406 out=20406 calls=20
";

    #[test]
    fn repeated_producer_blocks_count_once() {
        let s = summarize(PROFILE);
        assert_eq!(s.pipelines, 3, "two consumers and one producer");
        assert_eq!(s.mscan_rows, 20406);
        let ms = |c: OpClass| s.self_ms[c as usize];
        assert!((ms(OpClass::MScan) - 6.03).abs() < 1e-9);
        assert!((ms(OpClass::Aggr) - (0.01 + 0.02 + 23.52)).abs() < 1e-9);
        assert!((ms(OpClass::Exchange) - (68.01 + 44.71 + 44.73)).abs() < 1e-9);
        assert!((ms(OpClass::Sort) - 0.04).abs() < 1e-9);
        assert_eq!(ms(OpClass::Join), 0.0);
    }

    #[test]
    fn text_that_is_not_a_profile_adds_nothing() {
        assert_eq!(summarize("hello\n  world: 3\n"), ProfileSums::default());
    }
}
