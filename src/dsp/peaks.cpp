#include "dsp/peaks.hpp"

#include <algorithm>

namespace blinkradar::dsp {

std::vector<std::size_t> find_local_maxima(std::span<const double> signal,
                                           std::size_t min_separation) {
    std::vector<std::size_t> raw;
    const std::size_t n = signal.size();
    if (n < 3) return raw;
    for (std::size_t i = 1; i + 1 < n; ++i) {
        const double prev = signal[i - 1];
        const double cur = signal[i];
        // Plateau handling: scan forward over equal samples; accept the
        // plateau start if the sample after the plateau falls again.
        std::size_t j = i;
        while (j + 1 < n && signal[j + 1] == cur) ++j;
        if (j + 1 >= n) break;
        const double next = signal[j + 1];
        if (cur > prev && cur > next) raw.push_back(i);
        i = j;  // skip the plateau
    }
    if (min_separation <= 1 || raw.size() < 2) return raw;

    // Greedy suppression: visit candidates from largest to smallest,
    // accept if no already-accepted maximum is within min_separation.
    std::vector<std::size_t> order(raw.size());
    for (std::size_t i = 0; i < raw.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return signal[raw[a]] > signal[raw[b]];
    });
    std::vector<bool> keep(raw.size(), false);
    std::vector<std::size_t> accepted;
    for (const std::size_t cand : order) {
        const std::size_t pos = raw[cand];
        bool ok = true;
        for (const std::size_t a : accepted) {
            const std::size_t d = pos > a ? pos - a : a - pos;
            if (d < min_separation) {
                ok = false;
                break;
            }
        }
        if (ok) {
            keep[cand] = true;
            accepted.push_back(pos);
        }
    }
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < raw.size(); ++i)
        if (keep[i]) out.push_back(raw[i]);
    return out;
}

}  // namespace blinkradar::dsp
