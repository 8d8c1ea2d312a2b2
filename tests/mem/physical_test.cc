/**
 * @file
 * Unit tests for the simulated physical memory.
 */

#include <gtest/gtest.h>

#include "mem/physical.hh"

namespace tmi
{

TEST(PhysicalMemory, FreshFrameReadsZero)
{
    PhysicalMemory phys(smallPageShift);
    PPage f = phys.allocFrame();
    std::uint8_t buf[16] = {0xff};
    phys.read(f * phys.pageBytes(), buf, sizeof(buf));
    for (std::uint8_t b : buf)
        EXPECT_EQ(b, 0);
}

TEST(PhysicalMemory, WriteReadRoundTrip)
{
    PhysicalMemory phys(smallPageShift);
    PPage f = phys.allocFrame();
    Addr base = f * phys.pageBytes();
    std::uint64_t v = 0xdeadbeefcafef00dULL;
    phys.write(base + 100, &v, 8);
    std::uint64_t out = 0;
    phys.read(base + 100, &out, 8);
    EXPECT_EQ(out, v);
}

TEST(PhysicalMemory, CopyPreservesContent)
{
    PhysicalMemory phys(smallPageShift);
    PPage src = phys.allocFrame();
    std::uint32_t v = 1234;
    phys.write(src * phys.pageBytes() + 8, &v, 4);

    PPage dst = phys.allocCopy(src);
    EXPECT_NE(src, dst);
    std::uint32_t out = 0;
    phys.read(dst * phys.pageBytes() + 8, &out, 4);
    EXPECT_EQ(out, v);

    // Copies diverge after the copy.
    std::uint32_t w = 99;
    phys.write(src * phys.pageBytes() + 8, &w, 4);
    phys.read(dst * phys.pageBytes() + 8, &out, 4);
    EXPECT_EQ(out, v);
}

TEST(PhysicalMemory, CopyOfUntouchedFrameIsLazy)
{
    PhysicalMemory phys(smallPageShift);
    PPage src = phys.allocFrame();
    PPage dst = phys.allocCopy(src);
    EXPECT_EQ(phys.framePtrIfTouched(dst), nullptr);
    std::uint8_t b = 0xff;
    phys.read(dst * phys.pageBytes(), &b, 1);
    EXPECT_EQ(b, 0);
}

TEST(PhysicalMemory, FreeTracksLiveCount)
{
    PhysicalMemory phys(smallPageShift);
    PPage a = phys.allocFrame();
    PPage b = phys.allocFrame();
    EXPECT_EQ(phys.liveFrames(), 2u);
    EXPECT_EQ(phys.peakFrames(), 2u);
    phys.freeFrame(a);
    EXPECT_EQ(phys.liveFrames(), 1u);
    EXPECT_FALSE(phys.frameLive(a));
    EXPECT_TRUE(phys.frameLive(b));
    EXPECT_EQ(phys.peakFrames(), 2u);
}

TEST(PhysicalMemory, CrossFrameAccess)
{
    PhysicalMemory phys(smallPageShift);
    PPage a = phys.allocFrame();
    PPage b = phys.allocFrame();
    ASSERT_EQ(b, a + 1); // frames are consecutive by construction
    Addr boundary = b * phys.pageBytes() - 4;
    std::uint64_t v = 0x1122334455667788ULL;
    phys.write(boundary, &v, 8);
    std::uint64_t out = 0;
    phys.read(boundary, &out, 8);
    EXPECT_EQ(out, v);
}

TEST(PhysicalMemory, TypedAccessAgreesWithByteCopies)
{
    PhysicalMemory phys(smallPageShift);
    Addr base = phys.allocFrame() * phys.pageBytes();
    const std::uint64_t pattern = 0x8877665544332211ULL;
    for (unsigned width : {1u, 2u, 4u, 8u}) {
        SCOPED_TRACE(width);
        std::uint64_t mask =
            width == 8 ? ~std::uint64_t{0}
                       : (std::uint64_t{1} << (8 * width)) - 1;
        // store -> read: little-endian bytes, nothing past the width.
        Addr at = base + 64 * width + 3;
        phys.store(at, pattern, width);
        std::uint8_t bytes[9] = {};
        phys.read(at, bytes, width + 1);
        for (unsigned i = 0; i < width; ++i) {
            EXPECT_EQ(bytes[i],
                      static_cast<std::uint8_t>(pattern >> (8 * i)));
        }
        EXPECT_EQ(bytes[width], 0);
        EXPECT_EQ(phys.load(at, width), pattern & mask);

        // write -> load, at the last bytes of the frame.
        Addr tail = base + phys.pageBytes() - width;
        std::uint8_t in[8];
        std::uint64_t want = 0;
        for (unsigned i = 0; i < width; ++i) {
            in[i] = static_cast<std::uint8_t>(0xa0 + i);
            want |= std::uint64_t{in[i]} << (8 * i);
        }
        phys.write(tail, in, width);
        EXPECT_EQ(phys.load(tail, width), want);
    }
}

TEST(PhysicalMemory, TypedLoadOfUntouchedFrameIsZero)
{
    PhysicalMemory phys(smallPageShift);
    PPage f = phys.allocFrame();
    for (unsigned width : {1u, 2u, 4u, 8u})
        EXPECT_EQ(phys.load(f * phys.pageBytes() + 40, width), 0u);
    // Loads do not materialize the frame.
    EXPECT_EQ(phys.framePtrIfTouched(f), nullptr);
}

TEST(PhysicalMemory, HugePageGeometry)
{
    PhysicalMemory phys(hugePageShift);
    EXPECT_EQ(phys.pageBytes(), hugePageBytes);
    PPage f = phys.allocFrame();
    Addr last = (f + 1) * phys.pageBytes() - 1;
    std::uint8_t b = 0x5a;
    phys.write(last, &b, 1);
    std::uint8_t out = 0;
    phys.read(last, &out, 1);
    EXPECT_EQ(out, 0x5a);
}

} // namespace tmi
