/**
 * @file
 * Simulated physical memory: a sparse store of page frames.
 *
 * Frames are allocated by monotonically increasing frame number and
 * their backing host buffers are materialized lazily on first byte
 * access, so large simulated footprints cost accounting only until
 * they are actually touched. Reads from untouched frames return zero,
 * matching anonymous-mmap semantics.
 *
 * Every path that mutates frame bytes -- store(), write() and
 * framePtr() -- also marks the cache lines it touched in a per-frame
 * written-line mask, so the PTSB can diff only the lines a private
 * frame's owner actually wrote. Buffers of freed frames are kept on a
 * small bounded free list and handed to the next materialized frame;
 * frame *numbers* are never reused (physical addresses key the cache
 * simulator, so reusing one would move cache sets).
 */

#ifndef TMI_MEM_PHYSICAL_HH
#define TMI_MEM_PHYSICAL_HH

#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "common/logging.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace tmi
{

/** Sparse, lazily materialized simulated physical memory. */
class PhysicalMemory
{
  public:
    /**
     * @param page_shift log2 of the frame size (12 for 4 KB frames,
     *                   21 for 2 MB huge frames).
     */
    explicit PhysicalMemory(unsigned page_shift);

    /** Frame size in bytes. */
    Addr pageBytes() const { return Addr{1} << _pageShift; }

    /** log2 of the frame size. */
    unsigned pageShift() const { return _pageShift; }

    /** Allocate a fresh zeroed frame and return its frame number. */
    PPage allocFrame();

    /**
     * Allocate a private copy-on-write copy of @p src.
     *
     * The new frame's contents equal src's current contents, and no
     * line of it counts as written yet.
     */
    PPage allocCopy(PPage src);

    /** Release a frame; its number is not reused. */
    void freeFrame(PPage frame);

    /** Read @p size bytes starting at physical address @p paddr. */
    void read(Addr paddr, void *buf, std::size_t size) const;

    /** Write @p size bytes starting at physical address @p paddr. */
    void write(Addr paddr, const void *buf, std::size_t size);

    /**
     * Typed little-endian load of @p width (1..8) bytes at @p paddr,
     * zero-extended; the access must stay inside one frame. Reads of
     * a never-touched frame return 0.
     */
    std::uint64_t
    load(Addr paddr, unsigned width) const
    {
        const Frame &f = frameRefConst(paddr >> _pageShift);
        TMI_ASSERT(f.live);
        std::uint64_t v = 0;
        if (f.data)
            copyWidth(&v, bytes(f) + typedOffset(paddr, width), width);
        return v;
    }

    /** Typed little-endian store of the low @p width (1..8) bytes of
     *  @p value at @p paddr; the access must stay inside one frame. */
    void
    store(Addr paddr, std::uint64_t value, unsigned width)
    {
        Frame &f = frameRef(paddr >> _pageShift);
        TMI_ASSERT(f.live);
        if (!f.data)
            materialize(f, true);
        Addr off = typedOffset(paddr, width);
        copyWidth(bytes(f) + off, &value, width);
        // An access of at most 8 bytes touches at most two lines.
        markLine(f, off >> lineShift);
        markLine(f, (off + width - 1) >> lineShift);
    }

    /**
     * Borrow a frame's backing buffer, materializing it if needed.
     * The caller may write anywhere in it, so every line of the frame
     * counts as written from here on.
     *
     * Used by the PTSB merge path.
     */
    std::uint8_t *framePtr(PPage frame);

    /** Borrow a frame's buffer for reading; null if never touched. */
    const std::uint8_t *
    framePtrIfTouched(PPage frame) const
    {
        const Frame &f = frameRefConst(frame);
        TMI_ASSERT(f.live);
        return f.data ? bytes(f) : nullptr;
    }

    /**
     * The lines of @p frame written since it was allocated: bit
     * (i % 64) of word (i / 64) is set once line i of the frame has
     * been written through store(), write() or framePtr(). A superset
     * of the lines whose bytes changed. Null if the frame was never
     * touched (nothing written).
     */
    const std::uint64_t *
    writtenLines(PPage frame) const
    {
        const Frame &f = frameRefConst(frame);
        TMI_ASSERT(f.live);
        return f.data ? mask(f) : nullptr;
    }

    /** True if @p frame is currently allocated. */
    bool frameLive(PPage frame) const;

    /** Number of frames currently allocated (live). */
    std::uint64_t liveFrames() const { return _liveFrames; }

    /** Bytes of simulated memory currently allocated (live frames). */
    std::uint64_t liveBytes() const { return _liveFrames * pageBytes(); }

    /** High-water mark of live frames. */
    std::uint64_t peakFrames() const { return _peakFrames; }

    /** Register stats under @p group. */
    void regStats(stats::StatGroup &group);

  private:
    /** One frame's backing buffer: pageBytes() of data as 64-bit
     *  words, then maskWords() of written-line mask. */
    using Buffer = std::unique_ptr<std::uint64_t[]>;

    struct Frame
    {
        Buffer data; //!< null until touched
        bool live = false;
    };
    // _frames keeps one entry per frame ever allocated, every COW
    // copy included, so a wider entry shows up in peak RSS.
    static_assert(sizeof(Frame) == 16);

    /** Most spare buffers kept, in bytes of frame data. */
    static constexpr Addr spareBytes = Addr{16} << 10;

    Frame &
    frameRef(PPage frame)
    {
        TMI_ASSERT(frame < _frames.size());
        return _frames[frame];
    }

    const Frame &
    frameRefConst(PPage frame) const
    {
        TMI_ASSERT(frame < _frames.size());
        return _frames[frame];
    }

    /** Give untouched frame @p f a buffer (spare or fresh) with an
     *  empty mask; its data is zeroed only if @p zero. */
    void materialize(Frame &f, bool zero);

    static std::uint8_t *
    bytes(const Frame &f)
    {
        return reinterpret_cast<std::uint8_t *>(f.data.get());
    }

    std::uint64_t *
    mask(const Frame &f) const
    {
        return f.data.get() + (pageBytes() >> 3);
    }

    /** Words of written-line mask per frame. */
    Addr
    maskWords() const
    {
        return ((pageBytes() >> lineShift) + 63) >> 6;
    }

    /** Mark line @p line of @p f written. */
    void
    markLine(const Frame &f, Addr line)
    {
        mask(f)[line >> 6] |= std::uint64_t{1} << (line & 63);
    }

    /** Offset of a typed access in its frame; it may not cross it. */
    Addr
    typedOffset(Addr paddr, unsigned width) const
    {
        Addr off = paddr & (pageBytes() - 1);
        TMI_ASSERT(width >= 1 && width <= 8 &&
                   off + width <= pageBytes());
        return off;
    }

    /** memcpy with the common widths as compile-time sizes. Values
     *  live in host integers, so the simulated little-endian byte
     *  order needs a little-endian host. */
    static void
    copyWidth(void *dst, const void *src, unsigned width)
    {
        static_assert(std::endian::native == std::endian::little,
                      "typed physical access assumes a "
                      "little-endian host");
        switch (width) {
          case 8: std::memcpy(dst, src, 8); break;
          case 4: std::memcpy(dst, src, 4); break;
          case 2: std::memcpy(dst, src, 2); break;
          case 1: std::memcpy(dst, src, 1); break;
          default: std::memcpy(dst, src, width); break;
        }
    }

    unsigned _pageShift;
    std::vector<Frame> _frames;
    std::vector<Buffer> _spare; //!< buffers of freed frames
    std::uint64_t _liveFrames = 0;
    std::uint64_t _peakFrames = 0;

    stats::Scalar _statFramesAllocated;
    stats::Scalar _statFramesCopied;
    stats::Scalar _statFramesFreed;
};

} // namespace tmi

#endif // TMI_MEM_PHYSICAL_HH
