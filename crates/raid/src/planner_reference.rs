// The per-block I/O planner that `IoPlanner`'s run planner replaced, kept
// as the test oracle the run planner must match I/O for I/O. It is not a
// module: the test modules of `craid_raid::planner` and
// `craid_core::restripe` paste it in with `include!`, so there is one copy
// of the reference and no second runtime path. The including module must
// have `BlockRange`, `DiskBlock`, `IoKind`, `IoPurpose`, `Layout` and
// `PlannedIo` in scope.

/// Plans `logical_blocks` one block at a time: one `locate` (and, for
/// writes, one `parity_for`) per block, a `BTreeMap` grouping the written
/// blocks by the parity block that protects them, and a per-block sort and
/// merge. A parity column counts as fully written when its group holds at
/// least `data_blocks_per_parity_stripe / stripe_unit` entries, duplicates
/// included, so only duplicate-free inputs are a fair comparison.
fn reference_plan<L: Layout>(layout: &L, kind: IoKind, logical_blocks: &[u64]) -> Vec<PlannedIo> {
    match kind {
        IoKind::Read => reference_plan_reads(layout, logical_blocks),
        IoKind::Write => reference_plan_writes(layout, logical_blocks),
    }
}

fn reference_plan_reads<L: Layout>(layout: &L, logical_blocks: &[u64]) -> Vec<PlannedIo> {
    let locs: Vec<DiskBlock> = logical_blocks.iter().map(|&b| layout.locate(b)).collect();
    reference_coalesce(locs, IoKind::Read, IoPurpose::Data)
}

fn reference_plan_writes<L: Layout>(layout: &L, logical_blocks: &[u64]) -> Vec<PlannedIo> {
    // Data writes.
    let data_locs: Vec<DiskBlock> = logical_blocks.iter().map(|&b| layout.locate(b)).collect();
    let mut plan = reference_coalesce(data_locs.clone(), IoKind::Write, IoPurpose::Data);

    // Parity maintenance. Group the written blocks by the parity block
    // that protects them.
    let per_parity_block = (layout.data_blocks_per_parity_stripe() / layout.stripe_unit()).max(1);
    let mut groups: std::collections::BTreeMap<DiskBlock, Vec<DiskBlock>> =
        std::collections::BTreeMap::new();
    for (&logical, &loc) in logical_blocks.iter().zip(&data_locs) {
        if let Some(parity) = layout.parity_for(logical) {
            groups.entry(parity).or_default().push(loc);
        }
    }
    if groups.is_empty() {
        return plan; // Layout without redundancy (RAID-0).
    }

    let mut old_data_reads = Vec::new();
    let mut parity_reads = Vec::new();
    let mut parity_writes = Vec::new();
    for (parity, written) in groups {
        let full_column = written.len() as u64 >= per_parity_block;
        if !full_column {
            // Read-modify-write: old data of the written blocks + old parity.
            old_data_reads.extend(written);
            parity_reads.push(parity);
        }
        parity_writes.push(parity);
    }
    plan.extend(reference_coalesce(
        old_data_reads,
        IoKind::Read,
        IoPurpose::OldDataRead,
    ));
    plan.extend(reference_coalesce(
        parity_reads,
        IoKind::Read,
        IoPurpose::ParityRead,
    ));
    plan.extend(reference_coalesce(
        parity_writes,
        IoKind::Write,
        IoPurpose::ParityWrite,
    ));
    plan
}

/// Merges physically contiguous blocks on the same disk into single I/Os.
fn reference_coalesce(mut locs: Vec<DiskBlock>, kind: IoKind, purpose: IoPurpose) -> Vec<PlannedIo> {
    if locs.is_empty() {
        return Vec::new();
    }
    locs.sort_unstable();
    locs.dedup();
    let mut out = Vec::new();
    let mut run_disk = locs[0].disk;
    let mut run_start = locs[0].block;
    let mut run_len = 1u64;
    for loc in &locs[1..] {
        if loc.disk == run_disk && loc.block == run_start + run_len {
            run_len += 1;
        } else {
            out.push(PlannedIo {
                disk: run_disk,
                range: BlockRange::new(run_start, run_len),
                kind,
                purpose,
            });
            run_disk = loc.disk;
            run_start = loc.block;
            run_len = 1;
        }
    }
    out.push(PlannedIo {
        disk: run_disk,
        range: BlockRange::new(run_start, run_len),
        kind,
        purpose,
    });
    out
}
