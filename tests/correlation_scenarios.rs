//! Integration tests for the Figure 5 correlation scenario and the
//! Section 5.1 hard cases, on the full Mazu network.

use role_classification::flow::HostAddr;
use role_classification::roleclass::{
    apply_correlation, diff_groupings, try_classify, try_correlate, Params,
};
use role_classification::synthnet::{churn, scenarios};

fn params() -> Params {
    Params::default()
}

#[test]
fn figure5_full_scenario() {
    let original = scenarios::mazu(42);
    let before = try_classify(&original.connsets, &params()).unwrap();

    let mut changed = original.clone();
    let unix_mail = original.host("unix_mail");
    let ms_exchange = original.host("ms_exchange");
    churn::swap_hosts(&mut changed, unix_mail, ms_exchange);
    let old_nt = original.host("nt_server");
    let new_nt = HostAddr::from_octets(10, 0, 1, 18);
    churn::replace_host(&mut changed, old_nt, new_nt);
    let old_admin = original.role_hosts("admin")[0];
    churn::remove_host(&mut changed, old_admin);
    let template_eng = original.role_hosts("eng")[0];
    let new_eng = HostAddr::from_octets(10, 0, 0, 200);
    churn::add_host_like(&mut changed, template_eng, new_eng);

    let after = try_classify(&changed.connsets, &params()).unwrap();
    let corr = try_correlate(
        &original.connsets,
        &before.grouping,
        &changed.connsets,
        &after.grouping,
        &params(),
    )
    .unwrap();
    let renamed = apply_correlation(&corr, &after.grouping);

    // "Every group in the new results is correlated with an old group."
    assert!(
        corr.new_groups.is_empty(),
        "uncorrelated groups: {:?}",
        corr.new_groups
    );
    // Old groups may legitimately dissolve when the re-grouping has
    // fewer groups than before; anything beyond that is a correlation
    // failure.
    assert!(
        corr.vanished_groups.len() <= before.grouping.group_count() - after.grouping.group_count(),
        "vanished: {:?}",
        corr.vanished_groups
    );

    // The role swap follows behavior: the host now *playing* unix_mail
    // (physically ms_exchange's old address) sits in unix_mail's old
    // group.
    assert_eq!(
        renamed.group_of(ms_exchange),
        before.grouping.group_of(unix_mail)
    );
    assert_eq!(
        renamed.group_of(unix_mail),
        before.grouping.group_of(ms_exchange)
    );

    // The new NT server takes the old one's place.
    assert_eq!(renamed.group_of(new_nt), before.grouping.group_of(old_nt));

    // The new eng machine joins the eng group.
    assert_eq!(renamed.group_of(new_eng), renamed.group_of(template_eng));

    // Bookkeeping: added/removed hosts were detected.
    assert!(corr.added_hosts.contains(&new_nt));
    assert!(corr.added_hosts.contains(&new_eng));
    assert!(corr.removed_hosts.contains(&old_admin));
    assert!(corr.removed_hosts.contains(&old_nt));
}

#[test]
fn server_split_correlates_to_original_group() {
    // Section 5.1: "an existing server machine may be replaced by two
    // new machines that do load sharing among client machines. The
    // logical roles of the client machines have not changed."
    let original = scenarios::mazu(42);
    let before = try_classify(&original.connsets, &params()).unwrap();
    let mut changed = original.clone();
    let exch = original.host("ms_exchange");
    let r1 = HostAddr::from_octets(10, 0, 3, 1);
    let r2 = HostAddr::from_octets(10, 0, 3, 2);
    churn::split_server(&mut changed, exch, r1, r2);

    let after = try_classify(&changed.connsets, &params()).unwrap();
    let corr = try_correlate(
        &original.connsets,
        &before.grouping,
        &changed.connsets,
        &after.grouping,
        &params(),
    )
    .unwrap();
    let renamed = apply_correlation(&corr, &after.grouping);

    // The client side keeps its identity.
    let sales = original.role_hosts("sales")[0];
    assert_eq!(
        renamed.group_of(sales),
        before.grouping.group_of(sales),
        "sales group id should survive the server split"
    );
    // And the replicas land in some group correlated to the old
    // Exchange-side structure (same id as the old exchange group when
    // the grouping puts them together with the NT server again).
    assert!(renamed.group_of(r1).is_some());
    assert!(renamed.group_of(r2).is_some());
}

#[test]
fn no_change_means_empty_diff() {
    let net = scenarios::mazu(7);
    let a = try_classify(&net.connsets, &params()).unwrap();
    let b = try_classify(&net.connsets, &params()).unwrap();
    let corr = try_correlate(
        &net.connsets,
        &a.grouping,
        &net.connsets,
        &b.grouping,
        &params(),
    )
    .unwrap();
    let renamed = apply_correlation(&corr, &b.grouping);
    let diff = diff_groupings(&a.grouping, &renamed);
    assert!(diff.is_empty(), "diff:\n{}", diff.render());
}

#[test]
fn heavy_churn_keeps_majority_of_ids() {
    // Remove 5 hosts, add 5 hosts: most group ids survive.
    let original = scenarios::mazu(42);
    let before = try_classify(&original.connsets, &params()).unwrap();
    let mut changed = original.clone();
    for i in 0..5 {
        let victim = changed.role_hosts("lab")[i];
        churn::remove_host(&mut changed, victim);
    }
    for i in 0..5u8 {
        let template = changed.role_hosts("eng")[i as usize];
        churn::add_host_like(&mut changed, template, HostAddr::from_octets(10, 0, 4, i));
    }
    let after = try_classify(&changed.connsets, &params()).unwrap();
    let corr = try_correlate(
        &original.connsets,
        &before.grouping,
        &changed.connsets,
        &after.grouping,
        &params(),
    )
    .unwrap();
    assert!(
        corr.id_map.len() * 10 >= after.grouping.group_count() * 7,
        "only {}/{} groups correlated",
        corr.id_map.len(),
        after.grouping.group_count()
    );
}
