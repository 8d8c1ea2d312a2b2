#include "physical.hh"

#include <cstring>

namespace tmi
{

PhysicalMemory::PhysicalMemory(unsigned page_shift)
    : _pageShift(page_shift)
{
    TMI_ASSERT(page_shift >= lineShift && page_shift <= 30);
}

void
PhysicalMemory::materialize(Frame &f, bool zero)
{
    TMI_ASSERT(f.live && !f.data);
    if (_spare.empty()) {
        f.data = std::make_unique_for_overwrite<std::uint64_t[]>(
            (pageBytes() >> 3) + maskWords());
    } else {
        f.data = std::move(_spare.back());
        _spare.pop_back();
    }
    if (zero)
        std::memset(f.data.get(), 0, pageBytes());
    std::memset(mask(f), 0, maskWords() * sizeof(std::uint64_t));
}

PPage
PhysicalMemory::allocFrame()
{
    _frames.emplace_back();
    _frames.back().live = true;
    ++_liveFrames;
    if (_liveFrames > _peakFrames)
        _peakFrames = _liveFrames;
    ++_statFramesAllocated;
    return _frames.size() - 1;
}

PPage
PhysicalMemory::allocCopy(PPage src)
{
    PPage dst = allocFrame();
    ++_statFramesCopied;
    const Frame &sf = frameRefConst(src);
    TMI_ASSERT(sf.live);
    if (sf.data) {
        Frame &df = frameRef(dst);
        materialize(df, false);
        std::memcpy(bytes(df), bytes(sf), pageBytes());
    }
    return dst;
}

void
PhysicalMemory::freeFrame(PPage frame)
{
    Frame &f = frameRef(frame);
    TMI_ASSERT(f.live);
    f.live = false;
    if (f.data && (_spare.size() + 1) * pageBytes() <= spareBytes)
        _spare.push_back(std::move(f.data));
    else
        f.data.reset();
    --_liveFrames;
    ++_statFramesFreed;
}

void
PhysicalMemory::read(Addr paddr, void *buf, std::size_t size) const
{
    auto *out = static_cast<std::uint8_t *>(buf);
    while (size > 0) {
        PPage frame = paddr >> _pageShift;
        Addr off = paddr & (pageBytes() - 1);
        std::size_t chunk =
            std::min<std::size_t>(size, pageBytes() - off);
        const Frame &f = frameRefConst(frame);
        TMI_ASSERT(f.live);
        if (f.data)
            std::memcpy(out, bytes(f) + off, chunk);
        else
            std::memset(out, 0, chunk);
        out += chunk;
        paddr += chunk;
        size -= chunk;
    }
}

void
PhysicalMemory::write(Addr paddr, const void *buf, std::size_t size)
{
    const auto *in = static_cast<const std::uint8_t *>(buf);
    while (size > 0) {
        PPage frame = paddr >> _pageShift;
        Addr off = paddr & (pageBytes() - 1);
        std::size_t chunk =
            std::min<std::size_t>(size, pageBytes() - off);
        Frame &f = frameRef(frame);
        TMI_ASSERT(f.live);
        if (!f.data)
            materialize(f, true);
        std::memcpy(bytes(f) + off, in, chunk);
        Addr last = (off + chunk - 1) >> lineShift;
        for (Addr line = off >> lineShift; line <= last; ++line)
            markLine(f, line);
        in += chunk;
        paddr += chunk;
        size -= chunk;
    }
}

std::uint8_t *
PhysicalMemory::framePtr(PPage frame)
{
    Frame &f = frameRef(frame);
    TMI_ASSERT(f.live);
    if (!f.data)
        materialize(f, true);
    std::memset(mask(f), 0xff, maskWords() * sizeof(std::uint64_t));
    return bytes(f);
}

bool
PhysicalMemory::frameLive(PPage frame) const
{
    if (frame >= _frames.size())
        return false;
    return _frames[frame].live;
}

void
PhysicalMemory::regStats(stats::StatGroup &group)
{
    group.addScalar("framesAllocated", &_statFramesAllocated,
                    "total physical frames ever allocated");
    group.addScalar("framesCopied", &_statFramesCopied,
                    "frames allocated as COW copies");
    group.addScalar("framesFreed", &_statFramesFreed,
                    "frames released");
}

} // namespace tmi
