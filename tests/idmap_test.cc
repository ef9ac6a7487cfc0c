/**
 * @file
 * sim::IdMap against std::unordered_map: random churn, probe chains
 * that wrap around the end of the slot array, erases from the middle
 * of a chain, and growth.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <unordered_map>
#include <vector>

#include "sim/idmap.hh"
#include "sim/msg.hh"

using akita::sim::IdMap;

namespace
{

/** Every key of @p ref is found with its value, and sizes agree. */
template <typename V>
void
expectSame(const IdMap<V> &m, const std::unordered_map<std::uint64_t, V> &ref)
{
    ASSERT_EQ(m.size(), ref.size());
    for (const auto &kv : ref) {
        const V *v = m.find(kv.first);
        ASSERT_NE(v, nullptr) << "key " << kv.first;
        EXPECT_EQ(*v, kv.second) << "key " << kv.first;
    }
}

/** A message that counts its live instances. */
class CountedMsg : public akita::sim::Msg
{
  public:
    explicit CountedMsg(int v) : value(v) { live++; }
    ~CountedMsg() override { live--; }

    int value;
    static inline int live = 0;
};

/** @p n keys whose home slot in a @p capacity table is @p slot. */
std::vector<std::uint64_t>
keysHomedAt(std::size_t slot, std::size_t capacity, std::size_t n,
            std::uint64_t from = 0)
{
    std::vector<std::uint64_t> out;
    for (std::uint64_t k = from; out.size() < n; k++) {
        if (IdMap<int>::homeSlot(k, capacity) == slot)
            out.push_back(k);
    }
    return out;
}

} // namespace

TEST(IdMap, EmptyTableFindsAndErasesNothing)
{
    IdMap<int> m;
    EXPECT_TRUE(m.empty());
    EXPECT_EQ(m.capacity(), 0u);
    EXPECT_EQ(m.find(0), nullptr);
    EXPECT_FALSE(m.erase(0));
    EXPECT_EQ(m.find(7), nullptr);
}

TEST(IdMap, RandomChurnMatchesUnorderedMap)
{
    // Keys from a small range so inserts hit existing keys and erases
    // hit present ones often; ids near zero and near the top of the
    // range both occur in real runs.
    std::mt19937_64 rng(20240611);
    IdMap<std::uint64_t> m;
    std::unordered_map<std::uint64_t, std::uint64_t> ref;
    for (int step = 0; step < 200000; step++) {
        std::uint64_t key = rng() % 3000;
        if (step % 7 == 0)
            key += ~std::uint64_t{0} - 5000; // Just below the empty key.
        switch (rng() % 3) {
        case 0: {
            std::uint64_t v = rng();
            m[key] = v;
            ref[key] = v;
            break;
        }
        case 1:
            EXPECT_EQ(m.erase(key), ref.erase(key) == 1) << key;
            break;
        default: {
            auto it = ref.find(key);
            std::uint64_t *v = m.find(key);
            ASSERT_EQ(v != nullptr, it != ref.end()) << key;
            if (v != nullptr) {
                EXPECT_EQ(*v, it->second);
            }
        }
        }
        if (step % 5000 == 0)
            expectSame(m, ref);
    }
    expectSame(m, ref);
}

TEST(IdMap, ChainWrapsPastTheLastSlot)
{
    // Fill a 16-slot table's last slot's chain: the chain continues at
    // slot 0, so lookups and erases must wrap.
    IdMap<int> m;
    m[1] = 1; // Allocates the first 16 slots.
    ASSERT_EQ(m.capacity(), 16u);
    m.erase(1);
    std::vector<std::uint64_t> keys = keysHomedAt(15, 16, 4);
    // Also one key homed at slot 0: it sits behind the wrapped chain.
    std::uint64_t atZero = keysHomedAt(0, 16, 1).front();
    std::unordered_map<std::uint64_t, int> ref;
    int v = 0;
    for (std::uint64_t k : keys) {
        m[k] = ++v;
        ref[k] = v;
    }
    m[atZero] = 100;
    ref[atZero] = 100;
    ASSERT_EQ(m.capacity(), 16u) << "the test needs the 16-slot layout";
    expectSame(m, ref);

    // Erase the chain head: the wrapped entries shift back across the
    // end of the array, and the slot-0 entry must stay reachable.
    ASSERT_TRUE(m.erase(keys[0]));
    ref.erase(keys[0]);
    expectSame(m, ref);
    ASSERT_TRUE(m.erase(keys[2]));
    ref.erase(keys[2]);
    expectSame(m, ref);
    EXPECT_FALSE(m.erase(keys[2]));
}

TEST(IdMap, EraseInsideAProbeChainKeepsTheRestReachable)
{
    // Two interleaved chains in one run of slots: entries homed at 3
    // and at 4. Erasing a slot-3 entry must not move a slot-4 entry
    // before its home, and must pull later slot-3 entries back.
    IdMap<int> m;
    m[1] = 0;
    m.erase(1);
    ASSERT_EQ(m.capacity(), 16u);
    std::vector<std::uint64_t> a = keysHomedAt(3, 16, 3);
    std::vector<std::uint64_t> b = keysHomedAt(4, 16, 2);
    std::unordered_map<std::uint64_t, int> ref;
    // Layout: 3:a0 4:a1 5:b0 6:a2 7:b1.
    for (std::uint64_t k : {a[0], a[1], b[0], a[2], b[1]}) {
        m[k] = static_cast<int>(k % 1000);
        ref[k] = static_cast<int>(k % 1000);
    }
    ASSERT_EQ(m.capacity(), 16u);
    for (std::uint64_t k : {a[1], b[0], a[0], b[1], a[2]}) {
        ASSERT_TRUE(m.erase(k));
        ref.erase(k);
        expectSame(m, ref);
    }
    EXPECT_TRUE(m.empty());
}

TEST(IdMap, GrowthKeepsEveryEntryAndStaysAtMostHalfFull)
{
    IdMap<std::uint64_t> m;
    std::unordered_map<std::uint64_t, std::uint64_t> ref;
    std::size_t lastCap = 0;
    int grows = 0;
    for (std::uint64_t k = 0; k < 5000; k++) {
        // Sequential ids with a stride, like per-thread id blocks.
        std::uint64_t key = (k % 7) * 4096 + k;
        m[key] = key * 3;
        ref[key] = key * 3;
        ASSERT_LE(m.size() * 2, m.capacity());
        if (m.capacity() != lastCap) {
            grows++;
            lastCap = m.capacity();
            expectSame(m, ref);
        }
    }
    EXPECT_GT(grows, 5);
    expectSame(m, ref);

    // Draining keeps the slot array: refilling allocates nothing.
    std::size_t cap = m.capacity();
    for (const auto &kv : ref)
        ASSERT_TRUE(m.erase(kv.first));
    EXPECT_TRUE(m.empty());
    for (const auto &kv : ref)
        m[kv.first] = kv.second;
    EXPECT_EQ(m.capacity(), cap);
    expectSame(m, ref);
}

TEST(IdMap, ErasedOwningValuesReleaseTheirReference)
{
    // A table of owning pointers (L2 fetches in flight) must drop the
    // reference on erase, including entries shifted during the erase.
    IdMap<akita::sim::IntrusivePtr<CountedMsg>> m;
    for (std::uint64_t k = 0; k < 40; k++)
        m[k] = akita::sim::makeMsg<CountedMsg>(static_cast<int>(k));
    ASSERT_EQ(CountedMsg::live, 40);
    for (std::uint64_t k = 0; k < 40; k += 2)
        ASSERT_TRUE(m.erase(k));
    EXPECT_EQ(CountedMsg::live, 20);
    for (std::uint64_t k = 1; k < 40; k += 2) {
        auto *p = m.find(k);
        ASSERT_NE(p, nullptr);
        EXPECT_EQ((*p)->value, static_cast<int>(k));
    }
    for (std::uint64_t k = 1; k < 40; k += 2)
        ASSERT_TRUE(m.erase(k));
    EXPECT_TRUE(m.empty());
    EXPECT_EQ(CountedMsg::live, 0);
}
