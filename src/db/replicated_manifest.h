// Replicated redo manifest: the metadata log survives node loss.
//
// The manifest (record format and fold in manifest.h) is the
// database's root of trust — matview registrations and bulk-load
// commit groups must survive losing any one storage node — so it is
// kept as a minimal replicated raft-style log (DESIGN.md §12–13):
//
//   * one replica per storage node; replica k dies with node k;
//   * a fixed leader appends each commit group as one log entry stamped
//     with its term, then replicates it to every reachable follower
//     (lagging followers are caught up first);
//   * the entry commits only when a quorum (majority by default) holds
//     it; a failed quorum rolls the entry back off every log that took
//     it and the Commit() returns a retryable error;
//   * after a crash or node loss, RecoverFromQuorum() elects the most
//     up-to-date surviving member as leader (max last-term, then max
//     log length, ties to the lowest id; the term increments), and
//     catches every survivor up with term-checked truncation — a
//     follower entry whose term disagrees with the leader's at the same
//     index is discarded before copying.
//
// Membership is dynamic, changed with a two-phase joint-consensus
// transition in raft's style: BeginAddReplica/BeginRemoveReplicas
// commit a joint-configuration entry, after which *every* commit —
// including the final-configuration entry that ends the transition —
// must be acked by a quorum of BOTH the old and the new configuration.
// A failed joint quorum (including the "membership.jointcommit" fault
// point) rolls the entry back and the transition can be deterministically
// aborted back to the old configuration with AbortMembershipChange();
// a crash mid-transition aborts it in RecoverFromQuorum(). Replica
// slots are never reused: an aborted add leaves a dead, non-member
// slot so replica ids stay aligned with storage-node ids.
//
// Everything is in-process and deterministic; "replication" charges no
// simulated I/O — the log is tiny metadata next to the page traffic it
// describes.
//
// With one replica (a single-node database) every Commit() trivially
// reaches quorum locally: the log behaves as one durable file.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "db/manifest.h"

namespace sqp {

class Counter;

/// One log entry, stamped with the leader term that appended it:
/// either a committed group of manifest records or a configuration
/// change (joint or final).
struct ManifestLogEntry {
  enum class Kind { kRecords, kJointConfig, kFinalConfig };

  uint64_t term = 0;
  Kind kind = Kind::kRecords;
  std::vector<ManifestRecord> group;
  /// kJointConfig/kFinalConfig: the proposed member set.
  std::vector<size_t> config_members;
};

class ReplicatedManifest {
 public:
  /// `replicas` logs (one per storage node), all initially members.
  /// `quorum` 0 selects a majority (replicas/2 + 1).
  explicit ReplicatedManifest(size_t replicas = 1, size_t quorum = 0);

  ReplicatedManifest(const ReplicatedManifest&) = delete;
  ReplicatedManifest& operator=(const ReplicatedManifest&) = delete;

  /// Stage a record (volatile until the next Commit).
  void Append(ManifestRecord record);

  /// Atomically commit every staged record as one log entry, once a
  /// quorum of members holds it (during a membership transition: a
  /// quorum of both the old and the new configuration). On a failed
  /// quorum the entry is rolled back everywhere it landed, the staged
  /// records are discarded, and the retryable kResourceExhausted is
  /// returned — the caller undoes the covered catalog action.
  Status Commit();

  /// Crash: the staged (uncommitted) tail is lost.
  void DropUncommitted() { staged_.clear(); }

  /// Flattened committed record sequence (what FoldManifest consumes).
  const std::vector<ManifestRecord>& committed() const {
    return committed_flat_;
  }
  size_t committed_count() const { return committed_flat_.size(); }
  size_t staged_count() const { return staged_.size(); }

  // ------------------------------------------------------ membership
  /// Phase 1 of adding a member: create the replica slot (id ==
  /// replica_count()) and commit the joint configuration under both
  /// quorums. On failure the slot is removed again and the retryable
  /// error returned; on success the transition is open until
  /// CompleteMembershipChange/AbortMembershipChange.
  Result<size_t> BeginAddReplica();

  /// Phase 1 of removing members (non-members in `leaving` are
  /// ignored). kFailedPrecondition when the surviving configuration
  /// could not reach its own quorum, or a transition is already open.
  Status BeginRemoveReplicas(const std::vector<size_t>& leaving);

  /// Phase 2: commit the final configuration (still under the joint
  /// rule) and switch to it. The transition stays open on failure so
  /// the caller can retry or abort.
  Status CompleteMembershipChange();

  /// Deterministic rollback to the old configuration. Never fails;
  /// a best-effort final entry restoring the old config is appended
  /// under the old quorum alone. No-op without an open transition.
  Status AbortMembershipChange();

  bool in_joint_transition() const { return target_members_.has_value(); }
  bool IsMember(size_t k) const;
  size_t member_count() const { return members_.size(); }
  /// Alive members of the current configuration.
  size_t alive_members() const;
  /// Members whose replica is dead (their node was killed) — the set
  /// Repair() removes from the configuration.
  std::vector<size_t> DeadMembers() const;
  /// Would killing node k's replica drop the current (or, mid-
  /// transition, the target) configuration below quorum?
  bool WouldBreakQuorum(size_t k) const;

  /// Node k is gone; its manifest replica with it.
  void KillReplica(size_t k);

  /// After a crash or node loss: abort any in-flight membership
  /// transition, elect a leader among the surviving members and heal
  /// every surviving log. kDataLoss when fewer than `quorum` members
  /// survive — the manifest can no longer be trusted.
  Status RecoverFromQuorum();

  size_t replica_count() const { return replicas_.size(); }
  /// Alive members (historical name; non-member slots don't count).
  size_t alive_replicas() const { return alive_members(); }
  size_t quorum() const { return quorum_; }
  size_t leader() const { return leader_; }
  uint64_t term() const { return term_; }
  /// Log length of replica k (tests inspect catch-up behavior).
  size_t log_size(size_t k) const { return replicas_[k].log.size(); }

  uint64_t quorum_failures() const { return quorum_failures_; }

 private:
  struct Replica {
    std::vector<ManifestLogEntry> log;
    bool alive = true;
    /// Fault point gating replication to this replica
    /// ("node<k>.manifest.replicate").
    std::string replicate_point;
    /// Shared with the storage node ("node<k>.partition").
    std::string partition_point;
  };

  /// Is k a voter: current member, or member of the open target config.
  bool IsParticipant(size_t k) const;
  size_t AliveIn(const std::vector<size_t>& config) const;

  /// Most up-to-date alive participant: max last term, then max log
  /// length, ties to the lowest id. replicas_.size() when none.
  size_t MostUpToDate() const;

  /// Bump the term and install the most up-to-date survivor as leader.
  void ElectLeader();

  /// Fail over if the leader's replica died or left the configuration.
  /// kDataLoss when no electable quorum remains.
  Status EnsureLeader();

  /// Append `entry` to the leader, replicate to reachable participants,
  /// and enforce the (joint) quorum rule; rolls the entry back off
  /// every log on failure. Also checks "membership.jointcommit" while
  /// a transition is open.
  Status ReplicateEntry(ManifestLogEntry entry);

  /// Grow replicas_ by one slot with its fault-point names.
  void AddReplicaSlot();

  /// Copy leader entries the follower is missing, after term-checked
  /// truncation of any divergent suffix.
  void CatchUp(size_t k);

  void RebuildCommitted();

  std::vector<Replica> replicas_;
  /// Current committed configuration (sorted replica ids) + quorum.
  std::vector<size_t> members_;
  size_t quorum_;
  /// Open membership transition: proposed config + its quorum.
  std::optional<std::vector<size_t>> target_members_;
  size_t target_quorum_ = 0;
  /// Slot created by an open BeginAddReplica (for rollback accounting).
  std::optional<size_t> joint_added_replica_;
  size_t leader_ = 0;
  uint64_t term_ = 1;
  std::vector<ManifestRecord> staged_;
  std::vector<ManifestRecord> committed_flat_;
  uint64_t quorum_failures_ = 0;
  Counter* m_commits_;
  Counter* m_quorum_failures_;
  Counter* m_elections_;
  Counter* m_catchup_entries_;
  Counter* m_truncated_entries_;
  Counter* m_config_commits_;
};

}  // namespace sqp
