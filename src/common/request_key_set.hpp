// Exact set of request keys, compressed as per-client watermarks.
//
// Clients number their requests 1, 2, 3, ... (workload/client.hpp), and
// every grow-only "seen / ordered / executed" set in the protocol stack
// fills each client's rid space almost in order.  Storing those sets as
// ordered trees of RequestKey costs one heap node per request for the
// whole run.  RequestKeySet keeps, per client, a floor such that every rid
// in [1, floor) is a member, plus a sparse ordered tail of the members
// that are not covered by the floor (rids above it that arrived early, and
// rid 0).  Inserting the rid equal to the floor advances the floor and
// absorbs the tail entries it reaches, so a client whose requests all
// arrive costs one map entry however long the run is.
//
// The semantics are exactly those of det::set<RequestKey> restricted to
// insert / contains / size / clear: duplicates, rid 0, out-of-order and
// gapped rids are all answered exactly.  A rid that never arrives pins its
// client's floor, and every later member of that client then lives in the
// tail, so the worst case is the tree it replaces.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>

#include "common/det.hpp"
#include "common/types.hpp"

namespace rbft {

class RequestKeySet {
public:
    [[nodiscard]] bool contains(const RequestKey& key) const {
        auto it = clients_.find(key.client);
        return it != clients_.end() && it->second.contains(raw(key.rid));
    }

    /// Adds `key`; returns false if it was already a member.
    bool insert(const RequestKey& key) {
        Client& c = clients_[key.client];
        const std::uint64_t rid = raw(key.rid);
        if (c.contains(rid)) return false;
        ++size_;
        if (!c.absorbs(rid)) {
            c.tail.insert(rid);
            ++tail_size_;
            return true;
        }
        ++c.floor;
        for (auto it = c.tail.lower_bound(c.floor); it != c.tail.end() && c.absorbs(*it);) {
            it = c.tail.erase(it);
            --tail_size_;
            ++c.floor;
        }
        return true;
    }

    /// Number of members (O(1)).
    [[nodiscard]] std::size_t size() const noexcept { return size_; }

    /// Members stored individually, i.e. not covered by a client floor.
    [[nodiscard]] std::size_t tail_size() const noexcept { return tail_size_; }

    void clear() noexcept {
        clients_.clear();
        size_ = 0;
        tail_size_ = 0;
    }

private:
    struct Client {
        /// Every rid in [1, floor) is a member.
        std::uint64_t floor = 1;
        /// Members not covered by the floor, in rid order.
        det::set<std::uint64_t> tail;

        [[nodiscard]] bool contains(std::uint64_t rid) const {
            return (rid >= 1 && rid < floor) || tail.contains(rid);
        }
        /// Whether inserting `rid` advances the floor (the largest rid stays
        /// in the tail, so the floor never wraps).
        [[nodiscard]] bool absorbs(std::uint64_t rid) const noexcept {
            return rid == floor && rid != std::numeric_limits<std::uint64_t>::max();
        }
    };

    det::map<ClientId, Client> clients_;
    std::size_t size_ = 0;
    std::size_t tail_size_ = 0;
};

}  // namespace rbft
